#include "textflag.h"

// Sliding windows of lane masks for a hit's VPMASKMOVQ/VPMASKMOVD stores:
// all-ones lanes followed by as many zero lanes. A vector loaded at lane
// offset n-k, for a set of n ways and a hit at way k, has all-ones exactly in
// its lanes below k, and each later vector of the set reads on from where
// the one before ended.
DATA maskq<>+0x00(SB)/8, $-1
DATA maskq<>+0x08(SB)/8, $-1
DATA maskq<>+0x10(SB)/8, $-1
DATA maskq<>+0x18(SB)/8, $-1
DATA maskq<>+0x20(SB)/8, $-1
DATA maskq<>+0x28(SB)/8, $-1
DATA maskq<>+0x30(SB)/8, $-1
DATA maskq<>+0x38(SB)/8, $-1
DATA maskq<>+0x40(SB)/8, $0
DATA maskq<>+0x48(SB)/8, $0
DATA maskq<>+0x50(SB)/8, $0
DATA maskq<>+0x58(SB)/8, $0
DATA maskq<>+0x60(SB)/8, $0
DATA maskq<>+0x68(SB)/8, $0
DATA maskq<>+0x70(SB)/8, $0
DATA maskq<>+0x78(SB)/8, $0
GLOBL maskq<>(SB), RODATA|NOPTR, $128

DATA maskd<>+0x00(SB)/8, $-1
DATA maskd<>+0x08(SB)/8, $-1
DATA maskd<>+0x10(SB)/8, $-1
DATA maskd<>+0x18(SB)/8, $-1
DATA maskd<>+0x20(SB)/8, $-1
DATA maskd<>+0x28(SB)/8, $-1
DATA maskd<>+0x30(SB)/8, $-1
DATA maskd<>+0x38(SB)/8, $-1
DATA maskd<>+0x40(SB)/8, $-1
DATA maskd<>+0x48(SB)/8, $-1
DATA maskd<>+0x50(SB)/8, $0
DATA maskd<>+0x58(SB)/8, $0
DATA maskd<>+0x60(SB)/8, $0
DATA maskd<>+0x68(SB)/8, $0
DATA maskd<>+0x70(SB)/8, $0
DATA maskd<>+0x78(SB)/8, $0
DATA maskd<>+0x80(SB)/8, $0
DATA maskd<>+0x88(SB)/8, $0
DATA maskd<>+0x90(SB)/8, $0
DATA maskd<>+0x98(SB)/8, $0
GLOBL maskd<>(SB), RODATA|NOPTR, $160

// COMPARE8 loads the 8 ways of the set at set_base+0(FP) into Y1 (ways 0-3)
// and Y2 (ways 4-7), with the set's address in DI and t in AX, and compares
// every way with t at once. Y3 and Y4 take the lane masks of the ways that
// hold t, and ZF is set when none does.
#define COMPARE8 \
	MOVQ         set_base+0(FP), DI; \
	MOVQ         t+24(FP), AX; \
	VPBROADCASTQ t+24(FP), Y0; \
	VMOVDQU      (DI), Y1; \
	VMOVDQU      32(DI), Y2; \
	VPCMPEQQ     Y0, Y1, Y3; \
	VPCMPEQQ     Y0, Y2, Y4; \
	VPOR         Y3, Y4, Y5; \
	VPTEST       Y5, Y5

// HIT8 finishes a hit that COMPARE8 found at way k: ways 0 to k-1 move down
// one through masked stores, and t goes to way 0. Every store takes
// registers COMPARE8 loaded before any store.
#define HIT8 \
	VMOVMSKPD  Y3, R8; \
	VMOVMSKPD  Y4, R9; \
	SHLL       $4, R9; \
	ORL        R9, R8; \
	BSFL       R8, R10; \
	MOVQ       $8, R11; \
	SUBQ       R10, R11; \
	LEAQ       maskq<>(SB), SI; \
	VMOVDQU    (SI)(R11*8), Y7; \
	VMOVDQU    32(SI)(R11*8), Y8; \
	VPMASKMOVQ Y1, Y7, 8(DI); \
	VPMASKMOVQ Y2, Y8, 40(DI); \
	MOVQ       AX, (DI)

// func lookupInsert8x64(set []uint64, t uint64) bool
//
// The set's 8 ways are compared with t at once. On a miss, every way moves
// down one (ways 0-6 to 1-7, dropping way 7) and t goes to way 0: in a full
// set that evicts the LRU way, and in a set with empty ways it is exactly
// the scalar scan's result too, because empty ways form a suffix, so the
// ways it moves past the first empty one are empty and land on empty ways.
// On a hit at way k, only ways 0 to k-1 move down (HIT8).
TEXT ·lookupInsert8x64(SB), NOSPLIT, $0-33
	COMPARE8
	JNE          hit8
	VMOVDQU      24(DI), Y6  // ways 3-6
	VMOVDQU      Y1, 8(DI)   // to ways 1-4
	VMOVDQU      Y6, 32(DI)  // to ways 4-7
	MOVQ         AX, (DI)
	MOVB         $0, ret+32(FP)
	VZEROUPPER
	RET

hit8:
	HIT8
	MOVB $1, ret+32(FP)
	VZEROUPPER
	RET

// func lookup8x64(set []uint64, t uint64) bool
//
// Lookup's kernel: lookupInsert8x64's compare and hit path, and a miss that
// stores nothing.
TEXT ·lookup8x64(SB), NOSPLIT, $0-33
	COMPARE8
	JNE  hitl8
	MOVB $0, ret+32(FP)
	VZEROUPPER
	RET

hitl8:
	HIT8
	MOVB $1, ret+32(FP)
	VZEROUPPER
	RET

// func lookupInsert20x32(set []uint32, t uint32) bool
//
// The same for 20 ways of 32-bit tags, compared as ways 0-7, 8-15 and
// 16-19. No store reaches beyond way 19: a miss moves ways 15-18 with one
// 16-byte store ending at way 19, and a hit's mask lane for way 20 would
// need k > 19.
TEXT ·lookupInsert20x32(SB), NOSPLIT, $0-33
	MOVQ         set_base+0(FP), DI
	MOVL         t+24(FP), AX
	VMOVD        AX, X0
	VPBROADCASTD X0, Y0
	VMOVDQU      (DI), Y1   // ways 0-7
	VMOVDQU      32(DI), Y2 // ways 8-15
	VMOVDQU      64(DI), X3 // ways 16-19
	VPCMPEQD     Y0, Y1, Y4
	VPCMPEQD     Y0, Y2, Y5
	VPCMPEQD     X0, X3, X6
	VPOR         Y4, Y5, Y7
	VPOR         Y6, Y7, Y7
	VPTEST       Y7, Y7
	JNE          hit20
	VMOVDQU      60(DI), X8 // ways 15-18
	VMOVDQU      Y1, 4(DI)  // to ways 1-8
	VMOVDQU      Y2, 36(DI) // to ways 9-16
	VMOVDQU      X8, 64(DI) // to ways 16-19
	MOVL         AX, (DI)
	MOVB         $0, ret+32(FP)
	VZEROUPPER
	RET

hit20:
	VMOVMSKPS  Y4, R8
	VMOVMSKPS  Y5, R9
	SHLL       $8, R9
	ORL        R9, R8
	VMOVMSKPS  X6, R9
	SHLL       $16, R9
	ORL        R9, R8
	BSFL       R8, R10            // k, the way holding t
	MOVQ       $20, R11
	SUBQ       R10, R11
	LEAQ       maskd<>(SB), SI
	VMOVDQU    (SI)(R11*4), Y10   // lanes j < k
	VMOVDQU    32(SI)(R11*4), Y11 // lanes j+8 < k
	VMOVDQU    64(SI)(R11*4), X12 // lanes j+16 < k
	VPMASKMOVD Y1, Y10, 4(DI)
	VPMASKMOVD Y2, Y11, 36(DI)
	VPMASKMOVD X3, X12, 68(DI)
	MOVL       AX, (DI)
	MOVB       $1, ret+32(FP)
	VZEROUPPER
	RET

// func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL leaf+0(FP), AX
	MOVL sub+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv() (eax, edx uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-8
	MOVL $0, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET
