package isa

import (
	"bytes"
	"testing"
)

func TestEncodeDecodeRoundTrip(t *testing.T) {
	insts := []Inst{
		{Op: NOP},
		{Op: ADD, Rd: X3, Rn: X4, Rm: X5},
		{Op: MADD, Rd: X3, Rn: X4, Rm: X5, Ra: X6},
		{Op: ADDI, Rd: X1, Rn: X2, Imm: 4095},
		{Op: SUBI, Rd: X1, Rn: X2, Imm: -7},
		{Op: MOVZ, Rd: X9, Imm: 0xbeef, Shift: 3},
		{Op: MOVK, Rd: X9, Imm: 0x1234, Shift: 1},
		{Op: CSEL, Rd: X1, Rn: X2, Rm: X3, Cond: CondLO},
		{Op: BNE, Target: 42},
		{Op: CBNZ, Rn: X7, Target: -1},
		{Op: LDR, Rd: X4, Rn: X2, Rm: X5, Mode: AddrRegShift, Shift: 3},
		{Op: STRB, Rd: X4, Rn: X2, Imm: 17, Mode: AddrImm},
		{Op: FMADD, Rd: V1, Rn: V2, Rm: V3, Ra: V4},
		{Op: HALT},
		{Op: ADD, Rd: X3, Rn: X4, Rm: X5, Hints: HintDeadRn | HintDeadRm},
		{Op: MOVZ, Rd: X9, Imm: 7, Hints: HintRemat},
		{Op: LDR, Rd: X4, Rn: X2, Rm: X5, Mode: AddrRegShift, Shift: 3,
			Hints: HintDeadRm},
	}
	for _, in := range insts {
		enc := in.Encode(nil)
		if len(enc) != EncodedBytes {
			t.Fatalf("%s: encoded to %d bytes, want %d", in.String(), len(enc), EncodedBytes)
		}
		got, err := Decode(enc)
		if err != nil {
			t.Fatalf("%s: decode: %v", in.String(), err)
		}
		if got != in {
			t.Errorf("round trip changed %+v to %+v", in, got)
		}
	}
}

func TestDecodeRejectsBadFields(t *testing.T) {
	good := (&Inst{Op: ADD, Rd: X1, Rn: X2, Rm: X3}).Encode(nil)
	cases := []struct {
		name  string
		byte_ int
		val   byte
	}{
		{"opcode", 0, byte(numOps)},
		{"rd", 1, NumRegs},
		{"rn", 2, 0xff},
		{"shift", 5, 64},
		{"cond", 6, 0x0f},
		{"mode", 6, 0x30},
		{"hint version 0 with flags", 7, 0x01},
		{"hint version 0 with all flags", 7, 0x3f},
		{"hint version 1 without flags", 7, 0x40},
		{"hint version 2", 7, 0x81},
		{"hint version 3", 7, 0xc1},
		{"hint reserved bit 5 alone", 7, 0x60},
		{"hint reserved bit 5 with a flag", 7, 0x61},
	}
	for _, c := range cases {
		b := append([]byte(nil), good...)
		b[c.byte_] = c.val
		if _, err := Decode(b); err == nil {
			t.Errorf("%s: decode accepted invalid byte %d = %#x", c.name, c.byte_, c.val)
		}
	}
	if _, err := Decode(good[:EncodedBytes-1]); err == nil {
		t.Error("decode accepted a short buffer")
	}
}

// TestHintByteRoundTrip exhaustively round-trips every hint flag
// combination through byte 7 and pins the canonical encoding rules: no
// hints encodes as the legacy zero byte, any hints as version 1 | flags,
// and a version-1 byte with reserved bit 5 set never decodes.
func TestHintByteRoundTrip(t *testing.T) {
	base := Inst{Op: MADD, Rd: X3, Rn: X4, Rm: X5, Ra: X6}
	for flags := 0; flags < 32; flags++ {
		in := base
		in.Hints = Hint(flags)
		enc := in.Encode(nil)
		want := byte(0)
		if flags != 0 {
			want = byte(flags) | 0x40
		}
		if enc[7] != want {
			t.Fatalf("hints %#02x: encoded byte 7 = %#02x, want %#02x", flags, enc[7], want)
		}
		got, err := Decode(enc)
		if err != nil {
			t.Fatalf("hints %#02x: decode: %v", flags, err)
		}
		if got != in {
			t.Fatalf("hints %#02x: round trip changed %+v to %+v", flags, in, got)
		}
	}
	enc := base.Encode(nil)
	for hb := 0x60; hb < 0x80; hb++ {
		enc[7] = byte(hb)
		if _, err := Decode(enc); err == nil {
			t.Errorf("decode accepted hint byte %#02x with reserved bit 5 set", hb)
		}
	}
}

// TestHintByteBackwardCompat proves legacy encodings are untouched: an
// instruction with no hints encodes byte-for-byte as before the hint byte
// existed (byte 7 zero), and a pre-hint encoding decodes to Hints == 0 and
// re-encodes identically.
func TestHintByteBackwardCompat(t *testing.T) {
	in := Inst{Op: LDRSW, Rd: X6, Rn: X2, Rm: X5, Mode: AddrRegShift, Shift: 2}
	enc := in.Encode(nil)
	if enc[7] != 0 {
		t.Fatalf("hint-free instruction set byte 7 = %#02x, want 0", enc[7])
	}
	legacy := append([]byte(nil), enc...) // what an old writer produced
	got, err := Decode(legacy)
	if err != nil {
		t.Fatalf("legacy decode: %v", err)
	}
	if got.Hints != 0 {
		t.Fatalf("legacy encoding decoded with hints %v", got.Hints)
	}
	if re := got.Encode(nil); !bytes.Equal(re, legacy) {
		t.Fatalf("legacy bytes %x re-encode to %x", legacy, re)
	}
}

// FuzzEncodeDecode feeds raw bytes to Decode; every accepted instruction
// must re-encode to exactly the bytes it was decoded from, and survive a
// second round trip unchanged.
func FuzzEncodeDecode(f *testing.F) {
	f.Add((&Inst{Op: ADD, Rd: X1, Rn: X2, Rm: X3}).Encode(nil))
	f.Add((&Inst{Op: LDR, Rd: X4, Rn: X2, Rm: X5, Mode: AddrRegShift, Shift: 3}).Encode(nil))
	f.Add((&Inst{Op: MOVZ, Rd: X9, Imm: -1, Shift: 2}).Encode(nil))
	f.Add((&Inst{Op: ADD, Rd: X3, Rn: X4, Rm: X5,
		Hints: HintDeadRn | HintDeadRm}).Encode(nil))
	f.Add(make([]byte, EncodedBytes))
	f.Fuzz(func(t *testing.T, data []byte) {
		in, err := Decode(data)
		if err != nil {
			return
		}
		enc := in.Encode(nil)
		if !bytes.Equal(enc, data[:EncodedBytes]) {
			t.Fatalf("decode(%x) = %+v re-encodes to %x", data[:EncodedBytes], in, enc)
		}
		again, err := Decode(enc)
		if err != nil {
			t.Fatalf("re-decode of %x failed: %v", enc, err)
		}
		if again != in {
			t.Fatalf("second round trip changed %+v to %+v", in, again)
		}
	})
}
