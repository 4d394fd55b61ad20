package store

import (
	"bytes"
	"context"
	"errors"
	"testing"

	"repro/internal/sim"
	"repro/internal/workload"
)

// FuzzEntryDecode drives the on-disk entry decoder with arbitrary bytes:
// whatever the input — truncated, bit-flipped, hostile lengths — Decode must
// return a clean error or a verified result, never panic, never over-allocate
// on a lying length field, and never serve data that fails verification.
func FuzzEntryDecode(f *testing.F) {
	w, ok := workload.ByName("mcf")
	if !ok {
		f.Fatal("missing workload mcf")
	}
	p := sim.DefaultParams()
	p.WarmupWalks = 120
	p.MeasureWalks = 80
	key := sim.Key(sim.Scenario{Workload: w}, p)
	res, err := sim.Run(context.Background(), key.Scenario, key.Params, nil, nil)
	if err != nil {
		f.Fatal(err)
	}
	valid, err := Encode(key, res)
	if err != nil {
		f.Fatal(err)
	}

	// Seeds: the valid entry, systematic truncations, a bit flip in every
	// region (magic, length, payload, trailer), and framing edge cases.
	f.Add(valid)
	f.Add(valid[:0])
	f.Add(valid[:len(magic)])
	f.Add(valid[:headerLen])
	f.Add(valid[:len(valid)-1])
	for _, off := range []int{0, len(magic), headerLen, len(valid) / 2, len(valid) - 1} {
		mut := append([]byte(nil), valid...)
		mut[off] ^= 0x40
		f.Add(mut)
	}
	huge := append([]byte(nil), valid...)
	huge[len(magic)] = 0xff // length field claims ~4 GiB
	f.Add(huge)

	f.Fuzz(func(t *testing.T, data []byte) {
		res, err := Decode(data, key)
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("non-ErrCorrupt decode error: %v", err)
			}
			if res != nil {
				t.Fatal("error with partial result")
			}
			return
		}
		// A successful decode must be a verified entry for this key: its
		// re-encoding reproduces the canonical bytes.
		enc, err := Encode(key, res)
		if err != nil {
			t.Fatalf("re-encode of decoded result: %v", err)
		}
		if !bytes.Equal(enc, valid) {
			t.Fatal("decoder accepted bytes that are not the canonical entry")
		}
	})
}
