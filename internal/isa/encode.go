package isa

import (
	"encoding/binary"
	"fmt"
)

// EncodedBytes is the size of one instruction in the fixed-width binary
// encoding. The encoding exists for tooling — repro artifacts, fuzzing,
// hashing programs — not for the simulated machine, whose architectural
// instruction size stays InstBytes (instructions execute from decoded
// form).
//
// Layout (little-endian):
//
//	byte  0      Op
//	byte  1..4   Rd, Rn, Rm, Ra
//	byte  5      Shift
//	byte  6      Cond (low nibble) | Mode (high nibble)
//	byte  7      hint byte: version (bits 6-7) | reserved, zero (bit 5) |
//	             hint flags (bits 0-4)
//	bytes 8..15  Imm  (int64)
//	bytes 16..19 Target (int32)
//
// Byte 7 was originally reserved-must-be-zero; it now carries the
// versioned hint byte. Zero still means "no hints", so every legacy
// encoding decodes identically, byte for byte. A non-zero byte must have
// version 1, bit 5 clear and at least one flag set (the canonical
// encoding of "no hints" is the zero byte, keeping decode→encode
// byte-exact).
const EncodedBytes = 20

// Encode appends the fixed-width binary form of the instruction to dst.
func (in *Inst) Encode(dst []byte) []byte {
	var b [EncodedBytes]byte
	b[0] = byte(in.Op)
	b[1] = byte(in.Rd)
	b[2] = byte(in.Rn)
	b[3] = byte(in.Rm)
	b[4] = byte(in.Ra)
	b[5] = in.Shift
	b[6] = byte(in.Cond) | byte(in.Mode)<<4
	if flags := in.Hints & hintFlagMask; flags != 0 {
		b[7] = byte(flags) | 1<<hintVersionShift
	}
	binary.LittleEndian.PutUint64(b[8:], uint64(in.Imm))
	binary.LittleEndian.PutUint32(b[16:], uint32(in.Target))
	return append(dst, b[:]...)
}

// Decode reads one instruction from the start of b, validating every
// field: an instruction that decodes successfully re-encodes to the same
// bytes, and all of its register, condition, mode and shift fields are in
// range for the ISA.
func Decode(b []byte) (Inst, error) {
	var in Inst
	if len(b) < EncodedBytes {
		return in, fmt.Errorf("isa: short encoding: %d bytes, need %d", len(b), EncodedBytes)
	}
	if Op(b[0]) >= numOps {
		return in, fmt.Errorf("isa: bad opcode %d", b[0])
	}
	for i, name := range [...]string{"", "Rd", "Rn", "Rm", "Ra"} {
		if i > 0 && b[i] >= NumRegs {
			return in, fmt.Errorf("isa: bad %s register %d", name, b[i])
		}
	}
	if b[5] >= 64 {
		return in, fmt.Errorf("isa: bad shift %d", b[5])
	}
	if cond := b[6] & 0xf; int(cond) >= len(condNames) {
		return in, fmt.Errorf("isa: bad condition %d", cond)
	}
	if mode := b[6] >> 4; mode > uint8(AddrRegShift) {
		return in, fmt.Errorf("isa: bad addressing mode %d", mode)
	}
	var hints Hint
	if hb := b[7]; hb != 0 {
		ver := hb >> hintVersionShift
		flags := Hint(hb) & hintFlagMask
		switch {
		case ver == 0:
			return in, fmt.Errorf("isa: hint byte %#x has flags but version 0", hb)
		case ver != 1:
			return in, fmt.Errorf("isa: unsupported hint version %d", ver)
		case hb&(1<<5) != 0:
			return in, fmt.Errorf("isa: hint byte %#x sets reserved bit 5", hb)
		case flags == 0:
			return in, fmt.Errorf("isa: non-canonical hint byte %#x (version set, no flags)", hb)
		}
		hints = flags
	}
	in = Inst{
		Op:     Op(b[0]),
		Rd:     Reg(b[1]),
		Rn:     Reg(b[2]),
		Rm:     Reg(b[3]),
		Ra:     Reg(b[4]),
		Shift:  b[5],
		Cond:   Cond(b[6] & 0xf),
		Mode:   AddrMode(b[6] >> 4),
		Imm:    int64(binary.LittleEndian.Uint64(b[8:])),
		Target: int32(binary.LittleEndian.Uint32(b[16:])),
		Hints:  hints,
	}
	return in, nil
}
