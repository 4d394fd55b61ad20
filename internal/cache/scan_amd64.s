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

// The set-scan sequences below are macros over registers, shared by the
// per-set kernels and accessBurst. COMPARE8 and COMPARE20 take a set's
// address in set and t broadcast to every lane of Y0. MISS8, MISS20, HIT8
// and HIT20 take the same set and t in a general register, and finish
// the probe COMPARE8 or COMPARE20 ran: every store takes registers the
// compare loaded before any store. HIT8 and HIT20 use R8 and R9.

// COMPARE8 loads the 8 ways of the set into Y1 (ways 0-3) and Y2 (ways
// 4-7) and compares every way with t at once. Y3 and Y4 take the lane
// masks of the ways that hold t, and ZF is set when none does.
#define COMPARE8(set) \
	VMOVDQU  (set), Y1; \
	VMOVDQU  32(set), Y2; \
	VPCMPEQQ Y0, Y1, Y3; \
	VPCMPEQQ Y0, Y2, Y4; \
	VPOR     Y3, Y4, Y5; \
	VPTEST   Y5, Y5

// MISS8 finishes a miss: every way moves down one (ways 0-6 to 1-7,
// dropping way 7) and t goes to way 0.
#define MISS8(set, t) \
	VMOVDQU 24(set), Y6; \
	VMOVDQU Y1, 8(set); \
	VMOVDQU Y6, 32(set); \
	MOVQ    t, (set)

// HIT8 finishes a hit at way k: ways 0 to k-1 move down one through masked
// stores, and t goes to way 0. The masks are read at lane offset 8-k of
// maskq.
#define HIT8(set, t) \
	VMOVMSKPD  Y3, R8; \
	VMOVMSKPD  Y4, R9; \
	SHLL       $4, R9; \
	ORL        R9, R8; \
	BSFL       R8, R8; \
	NEGQ       R8; \
	LEAQ       maskq<>+64(SB), R9; \
	VMOVDQU    (R9)(R8*8), Y7; \
	VMOVDQU    32(R9)(R8*8), Y8; \
	VPMASKMOVQ Y1, Y7, 8(set); \
	VPMASKMOVQ Y2, Y8, 40(set); \
	MOVQ       t, (set)

// COMPARE20 is COMPARE8 for 20 ways of 32-bit tags, compared as ways 0-7
// (Y1), 8-15 (Y2) and 16-19 (X3). Y4, Y5 and X6 take the lane masks.
#define COMPARE20(set) \
	VMOVDQU  (set), Y1; \
	VMOVDQU  32(set), Y2; \
	VMOVDQU  64(set), X3; \
	VPCMPEQD Y0, Y1, Y4; \
	VPCMPEQD Y0, Y2, Y5; \
	VPCMPEQD X0, X3, X6; \
	VPOR     Y4, Y5, Y7; \
	VPOR     Y6, Y7, Y7; \
	VPTEST   Y7, Y7

// MISS20 is MISS8 for 20 ways. No store reaches beyond way 19: ways 15-18
// move with one 16-byte store ending at way 19.
#define MISS20(set, t) \
	VMOVDQU 60(set), X8; \
	VMOVDQU Y1, 4(set); \
	VMOVDQU Y2, 36(set); \
	VMOVDQU X8, 64(set); \
	MOVL    t, (set)

// HIT20 is HIT8 for 20 ways, with masks read at lane offset 20-k of maskd.
// A mask lane for way 20 would need k > 19, so no store reaches beyond way
// 19 either.
#define HIT20(set, t) \
	VMOVMSKPS  Y4, R8; \
	VMOVMSKPS  Y5, R9; \
	SHLL       $8, R9; \
	ORL        R9, R8; \
	VMOVMSKPS  X6, R9; \
	SHLL       $16, R9; \
	ORL        R9, R8; \
	BSFL       R8, R8; \
	NEGQ       R8; \
	LEAQ       maskd<>+80(SB), R9; \
	VMOVDQU    (R9)(R8*4), Y10; \
	VMOVDQU    32(R9)(R8*4), Y11; \
	VMOVDQU    64(R9)(R8*4), X12; \
	VPMASKMOVD Y1, Y10, 4(set); \
	VPMASKMOVD Y2, Y11, 36(set); \
	VPMASKMOVD X3, X12, 68(set); \
	MOVL       t, (set)

// func lookupInsert8x64(set []uint64, t uint64) bool
//
// The set's 8 ways are compared with t at once. On a miss, every way moves
// down one and t goes to way 0 (MISS8): in a full set that evicts the LRU
// way, and in a set with empty ways it is exactly the scalar scan's result
// too, because empty ways form a suffix, so the ways it moves past the first
// empty one are empty and land on empty ways. On a hit at way k, only ways
// 0 to k-1 move down (HIT8).
TEXT ·lookupInsert8x64(SB), NOSPLIT, $0-33
	MOVQ         set_base+0(FP), DI
	MOVQ         t+24(FP), AX
	VPBROADCASTQ t+24(FP), Y0
	COMPARE8(DI)
	JNE          hit8
	MISS8(DI, AX)
	MOVB         $0, ret+32(FP)
	VZEROUPPER
	RET

hit8:
	HIT8(DI, AX)
	MOVB $1, ret+32(FP)
	VZEROUPPER
	RET

// func lookup8x64(set []uint64, t uint64) bool
//
// Lookup's kernel: lookupInsert8x64's compare and hit path, and a miss that
// stores nothing.
TEXT ·lookup8x64(SB), NOSPLIT, $0-33
	MOVQ         set_base+0(FP), DI
	MOVQ         t+24(FP), AX
	VPBROADCASTQ t+24(FP), Y0
	COMPARE8(DI)
	JNE          hitl8
	MOVB         $0, ret+32(FP)
	VZEROUPPER
	RET

hitl8:
	HIT8(DI, AX)
	MOVB $1, ret+32(FP)
	VZEROUPPER
	RET

// func lookupInsert20x32(set []uint32, t uint32) bool
//
// The same for 20 ways of 32-bit tags.
TEXT ·lookupInsert20x32(SB), NOSPLIT, $0-33
	MOVQ         set_base+0(FP), DI
	MOVL         t+24(FP), AX
	VMOVD        AX, X0
	VPBROADCASTD X0, Y0
	COMPARE20(DI)
	JNE          hit20
	MISS20(DI, AX)
	MOVB         $0, ret+32(FP)
	VZEROUPPER
	RET

hit20:
	HIT20(DI, AX)
	MOVB $1, ret+32(FP)
	VZEROUPPER
	RET

// func accessBurst(l1, l2 []uint64, llc []uint32, l1Mask, l2Mask, llcMask, llcShift, llcLimit uint64, addrs []mem.PhysAddr) (n int, l1Hits, l2Hits, llcHits uint64)
//
// Hierarchy.Access on each address of addrs in order: the L1 and L2 8-way
// probes of lookupInsert8x64 and the LLC's 20-way probe of
// lookupInsert20x32, each run only when the level before missed, inside one
// loop. Sets are 64 bytes apart in L1 and L2 and 80 in the LLC. It stops
// before the first address whose LLC tag would not fit below the sentinel
// (line >= llcLimit) and returns how many addresses it took, with the hits
// at each level; L1 and L2 hold whole lines, and every line fits there.
//
// Registers across the loop: R12 walks addrs up to R13; CX holds llcShift;
// BX, DX and R10 count L1, L2 and LLC hits. AX holds the line, then the
// LLC tag, and DI the set being probed.
TEXT ·accessBurst(SB), NOSPLIT, $0-168
	MOVQ addrs_base+112(FP), R12
	MOVQ addrs_len+120(FP), R13
	LEAQ (R12)(R13*8), R13
	MOVQ llcShift+96(FP), CX
	XORL BX, BX
	XORL DX, DX
	XORL R10, R10
	CMPQ R12, R13
	JEQ  done

next:
	MOVQ (R12), AX
	SHRQ $6, AX // the line (mem.LineShift)
	CMPQ AX, llcLimit+104(FP)
	JAE  done

	MOVQ         AX, DI
	ANDQ         l1Mask+72(FP), DI
	SHLQ         $6, DI
	ADDQ         l1_base+0(FP), DI
	VMOVQ        AX, X0
	VPBROADCASTQ X0, Y0
	COMPARE8(DI)
	JNE          l1hit
	MISS8(DI, AX)

	MOVQ  AX, DI
	ANDQ  l2Mask+80(FP), DI
	SHLQ  $6, DI
	ADDQ  l2_base+24(FP), DI
	COMPARE8(DI)
	JNE   l2hit
	MISS8(DI, AX)

	MOVQ         AX, DI
	ANDQ         llcMask+88(FP), DI
	LEAQ         (DI)(DI*4), DI
	SHLQ         $4, DI
	ADDQ         llc_base+48(FP), DI
	SHRQ         CX, AX
	VMOVD        AX, X0
	VPBROADCASTD X0, Y0
	COMPARE20(DI)
	JNE          llchit
	MISS20(DI, AX)

advance:
	ADDQ $8, R12
	CMPQ R12, R13
	JNE  next

done:
	VZEROUPPER
	SUBQ addrs_base+112(FP), R12
	SHRQ $3, R12
	MOVQ R12, n+136(FP)
	MOVQ BX, l1Hits+144(FP)
	MOVQ DX, l2Hits+152(FP)
	MOVQ R10, llcHits+160(FP)
	RET

l1hit:
	HIT8(DI, AX)
	INCQ BX
	JMP  advance

l2hit:
	HIT8(DI, AX)
	INCQ DX
	JMP  advance

llchit:
	HIT20(DI, AX)
	INCQ R10
	JMP  advance

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
