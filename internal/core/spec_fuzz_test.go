package core

import "testing"

// FuzzDecodeSpec: no input may panic the decoder, the canonical
// encoder or the validator, and every input the decoder accepts must
// survive decode → EncodeSpec → decode with its SpecHash unchanged
// (the canonical bytes are a fixed point). The seed corpus in
// testdata/fuzz/FuzzDecodeSpec covers every kind plus the folded and
// removed engine spellings.
func FuzzDecodeSpec(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := DecodeSpec(data)
		if err != nil {
			return
		}
		enc, err := EncodeSpec(s)
		if err != nil {
			t.Fatalf("accepted spec does not encode: %v", err)
		}
		if c, err := CanonicalSpec(s); err == nil {
			_ = c.Validate()
		}
		h1, err := SpecHash(s)
		if err != nil {
			t.Fatal(err)
		}
		back, err := DecodeSpec(enc)
		if err != nil {
			t.Fatalf("canonical encoding %s does not decode: %v", enc, err)
		}
		h2, err := SpecHash(back)
		if err != nil {
			t.Fatal(err)
		}
		if h1 != h2 {
			t.Fatalf("hash changed across a round trip: %s → %s (canonical %s)", h1, h2, enc)
		}
		if enc2, err := EncodeSpec(back); err != nil || string(enc2) != string(enc) {
			t.Fatalf("canonical encoding not a fixed point: %s → %s (%v)", enc, enc2, err)
		}
	})
}
