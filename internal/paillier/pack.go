package paillier

import (
	"fmt"
	"io"
	"math/big"
)

// Ciphertext packing: several bounded non-negative slots ride in one
// plaintext, so one encryption, one decryption-share exponentiation and one
// wire frame carry k values instead of one.  The slot discipline matches the
// MPC packing layer (internal/mpc/pack.go): slot j holds v_j < 2^slotW at
// bit offset j·slotW, and the packed total must stay below half the
// plaintext modulus so the signed decode cannot flip it negative.  Callers
// make slot values non-negative by adding a public offset first, exactly as
// the Algorithm-2 conversion already does for its masked statistics.
//
// Two packing routes exist:
//
//   - Fresh encryptions: pack plaintext-side (PackInts) and encrypt once,
//     at level 1 or — when more slots are needed than Z_N holds — at a
//     Damgård–Jurik level s > 1 (see dj.go and PlanPack).
//   - Existing level-1 ciphertexts: pack homomorphically with shift-and-add
//     (PackCiphertexts); the result stays at level 1, so capacity is
//     bounded by |N|-2 regardless of DJ support.

// PackPlan describes a slot layout for one packed plaintext.
type PackPlan struct {
	SlotW uint // bits per slot
	Slots int  // slots per plaintext
	Level int  // DJ level carrying the packed plaintext (1 = plain Paillier)
}

// PackCapacity returns how many slotW-bit slots fit in one signed level-1
// plaintext (Z_N, one bit below N/2).
func (pk *PublicKey) PackCapacity(slotW uint) int {
	if slotW == 0 {
		return 0
	}
	return int(uint(pk.N.BitLen()-2) / slotW)
}

// PlanPack chooses a slot layout for packing `count` values of width slotW
// as fresh encryptions: level 1 when Z_N already fits at least two slots,
// otherwise the lowest DJ level (≤ maxLevel) that does.  Slots is capped at
// count.  A plan with Slots == 1 means packing does not pay for this width.
func (pk *PublicKey) PlanPack(count int, slotW uint, maxLevel int) PackPlan {
	if maxLevel < 1 {
		maxLevel = 1
	}
	for level := 1; ; level++ {
		slots := int(uint(level*pk.N.BitLen()-2) / slotW)
		if slots >= 2 || level >= maxLevel {
			if slots < 1 {
				slots = 1
			}
			if slots > count {
				slots = count
			}
			return PackPlan{SlotW: slotW, Slots: slots, Level: level}
		}
	}
}

// Groups returns how many packed plaintexts carry count slots.
func (p PackPlan) Groups(count int) int {
	return (count + p.Slots - 1) / p.Slots
}

// PackInts packs vals (each non-negative and < 2^slotW) into one integer,
// slot 0 in the low bits.  It panics on a slot violation: packing is always
// applied to offset values with a public bound, so a violation is a caller
// bug, not bad data.
func PackInts(vals []*big.Int, slotW uint) *big.Int {
	out := new(big.Int)
	for j := len(vals) - 1; j >= 0; j-- {
		v := vals[j]
		if v.Sign() < 0 || uint(v.BitLen()) > slotW {
			panic(fmt.Sprintf("paillier: slot value out of range for width %d", slotW))
		}
		out.Lsh(out, slotW)
		out.Add(out, v)
	}
	return out
}

// UnpackInts splits a packed non-negative integer back into n slot values.
func UnpackInts(packed *big.Int, slotW uint, n int) []*big.Int {
	out := make([]*big.Int, n)
	mask := new(big.Int).Lsh(one, slotW)
	mask.Sub(mask, one)
	for j := 0; j < n; j++ {
		v := new(big.Int).Rsh(packed, slotW*uint(j))
		out[j] = v.And(v, mask)
	}
	return out
}

// PackCiphertexts packs existing level-1 ciphertexts into one by the
// homomorphic shift-and-add Σ_j [x_j]·2^(j·slotW), evaluated Horner-style so
// the exponent of every step is just 2^slotW.  All slot plaintexts must be
// non-negative and < 2^slotW, and len(cts)·slotW must be within
// PackCapacity — the caller's offsets guarantee both.
func (pk *PublicKey) PackCiphertexts(cts []*Ciphertext, slotW uint) *Ciphertext {
	if len(cts) == 0 {
		return pk.ZeroDeterministic()
	}
	shift := new(big.Int).Lsh(one, slotW)
	acc := cts[len(cts)-1].Clone()
	for j := len(cts) - 2; j >= 0; j-- {
		acc = pk.Add(pk.MulConst(acc, shift), cts[j])
	}
	return acc
}

// EncryptPackedVec packs xs (non-negative, < 2^SlotW each) according to plan
// and encrypts the groups in parallel, at the plan's DJ level.
func (pk *PublicKey) EncryptPackedVec(random io.Reader, xs []*big.Int, plan PackPlan, workers int) ([]*Ciphertext, error) {
	groups := plan.Groups(len(xs))
	packed := make([]*big.Int, groups)
	for g := 0; g < groups; g++ {
		lo := g * plan.Slots
		hi := lo + plan.Slots
		if hi > len(xs) {
			hi = len(xs)
		}
		packed[g] = PackInts(xs[lo:hi], plan.SlotW)
	}
	if plan.Level == 1 {
		return pk.EncryptVec(random, packed, workers)
	}
	return pk.DJ(plan.Level).EncryptVec(random, packed, workers)
}

// ErrPackedRange is returned by UnpackVec for a decrypted total that no
// honest packing produces: negative, or longer than the bits its slots cover.
// UnpackInts masks each slot and drops what lies above them, so without the
// check one wrong decryption share decodes to plausible slot values.
type ErrPackedRange struct {
	Group int // index of the total
	Bits  int // its bit length, negated for a negative total
	Want  int // the most it may have: slots · slot width
}

func (e *ErrPackedRange) Error() string {
	if e.Bits < 0 {
		return fmt.Sprintf("paillier: packed total %d is negative", e.Group)
	}
	return fmt.Sprintf("paillier: packed total %d is %d bits long, its slots hold %d", e.Group, e.Bits, e.Want)
}

// UnpackVec splits `count` slot values back out of decrypted packed totals,
// refusing a total outside [0, 2^(slots·SlotW)) with an ErrPackedRange.
func UnpackVec(totals []*big.Int, plan PackPlan, count int) ([]*big.Int, error) {
	out := make([]*big.Int, 0, count)
	for g, tot := range totals {
		n := plan.Slots
		if rem := count - g*plan.Slots; rem < n {
			n = rem
		}
		bits, want := tot.BitLen()*tot.Sign(), n*int(plan.SlotW)
		if bits < 0 || bits > want {
			return nil, &ErrPackedRange{Group: g, Bits: bits, Want: want}
		}
		out = append(out, UnpackInts(tot, plan.SlotW, n)...)
	}
	return out, nil
}
