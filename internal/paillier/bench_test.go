package paillier

import (
	"crypto/rand"
	"fmt"
	"math/big"
	"runtime"
	"testing"
)

// Microbenchmarks for the encryption hot path: the seed sequential baseline,
// worker-parallel encryption, and the precomputed (pool + fixed-base)
// variants.  The repository benchmark's per-layer paillier.encrypt_us,
// encrypt_pooled_us and partial_dec_us track the same operations.

func benchKey(b *testing.B) *PublicKey {
	b.Helper()
	pk, _, _, err := KeyGen(rand.Reader, 512, 3)
	if err != nil {
		b.Fatal(err)
	}
	return pk
}

func benchPlain(n int) []*big.Int {
	xs := make([]*big.Int, n)
	for i := range xs {
		xs[i] = big.NewInt(int64(i * 31))
	}
	return xs
}

func BenchmarkEncryptSequential(b *testing.B) {
	pk := benchKey(b)
	xs := benchPlain(16)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := pk.EncryptVec(rand.Reader, xs, 1); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.N*len(xs))/b.Elapsed().Seconds(), "enc/s")
}

func BenchmarkEncryptParallel(b *testing.B) {
	pk := benchKey(b)
	xs := benchPlain(16)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := pk.EncryptVec(rand.Reader, xs, runtime.NumCPU()); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.N*len(xs))/b.Elapsed().Seconds(), "enc/s")
}

func BenchmarkEncryptPrecomputed(b *testing.B) {
	pk := benchKey(b)
	if _, err := pk.EnablePool(PoolConfig{Workers: 1, Capacity: 1024}); err != nil {
		b.Fatal(err)
	}
	defer pk.DisablePool()
	xs := benchPlain(16)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := pk.EncryptVec(rand.Reader, xs, 1); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.N*len(xs))/b.Elapsed().Seconds(), "enc/s")
}

func BenchmarkEncryptPrecomputedParallel(b *testing.B) {
	pk := benchKey(b)
	if _, err := pk.EnablePool(PoolConfig{Workers: 1, Capacity: 1024}); err != nil {
		b.Fatal(err)
	}
	defer pk.DisablePool()
	xs := benchPlain(16)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := pk.EncryptVec(rand.Reader, xs, runtime.NumCPU()); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.N*len(xs))/b.Elapsed().Seconds(), "enc/s")
}

func BenchmarkFixedBaseExp(b *testing.B) {
	pk := benchKey(b)
	base, err := rand.Int(rand.Reader, pk.N2)
	if err != nil {
		b.Fatal(err)
	}
	tbl := NewFixedBaseTable(base, pk.N2, 6, 256)
	e, err := rand.Int(rand.Reader, new(big.Int).Lsh(big.NewInt(1), 256))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tbl.Exp(e)
	}
}

func BenchmarkBigIntExpFullWidth(b *testing.B) {
	pk := benchKey(b)
	base, err := rand.Int(rand.Reader, pk.N2)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		new(big.Int).Exp(base, pk.N, pk.N2)
	}
}

func BenchmarkPartialDecryptSequential(b *testing.B) { benchPartialDecrypt(b, 1) }
func BenchmarkPartialDecryptParallel(b *testing.B)   { benchPartialDecrypt(b, runtime.NumCPU()) }

func benchPartialDecrypt(b *testing.B, workers int) {
	pk, _, keys, err := KeyGen(rand.Reader, 512, 3)
	if err != nil {
		b.Fatal(err)
	}
	cts, err := pk.EncryptVec(rand.Reader, benchPlain(16), 1)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		keys[0].PartialDecryptVec(pk, cts, workers)
	}
	b.ReportMetric(float64(b.N*len(cts))/b.Elapsed().Seconds(), "dec/s")
}

// benchKeys holds one key per size, generated once per test binary (a
// 1024-bit KeyGen costs more than most of the benchmarks below).
var benchKeys = map[int]*PublicKey{} // by key bits; benchmarks run one at a time

func benchKeyBits(b *testing.B, bits int) *PublicKey {
	b.Helper()
	if pk := benchKeys[bits]; pk != nil {
		return pk
	}
	pk, _, _, err := KeyGen(rand.Reader, bits, 3)
	if err != nil {
		b.Fatal(err)
	}
	benchKeys[bits] = pk
	return pk
}

func benchResidues(b *testing.B, m *big.Int, n int) []*big.Int {
	b.Helper()
	xs := make([]*big.Int, n)
	for i := range xs {
		x, err := rand.Int(rand.Reader, m)
		if err != nil {
			b.Fatal(err)
		}
		xs[i] = x
	}
	return xs
}

// BenchmarkMulMod times one modular multiplication at the three N² sizes the
// benchmark workloads use (256-, 512- and 1024-bit keys): barrett is the
// reducer every homomorphic operation runs on, bigmod the Mul+Mod pair it
// replaced.
func BenchmarkMulMod(b *testing.B) {
	for _, bits := range []int{512, 1024, 2048} {
		pk := benchKeyBits(b, bits/2)
		xs := benchResidues(b, pk.N2, 64)
		b.Run(fmt.Sprintf("%d/barrett", bits), func(b *testing.B) {
			b.ReportAllocs()
			r, s, z := pk.n2(), new(scratch), new(big.Int)
			for i := 0; i < b.N; i++ {
				r.mulMod(z, xs[i%64], xs[(i+1)%64], s)
			}
		})
		b.Run(fmt.Sprintf("%d/bigmod", bits), func(b *testing.B) {
			b.ReportAllocs()
			z := new(big.Int)
			for i := 0; i < b.N; i++ {
				z.Mul(xs[i%64], xs[(i+1)%64])
				z.Mod(z, pk.N2)
			}
		})
	}
}

// BenchmarkObfuscator times one Pool.generate — the unit of work behind
// every pooled encryption and rerandomization — by key size.
func BenchmarkObfuscator(b *testing.B) {
	for _, bits := range []int{512, 1024} {
		b.Run(fmt.Sprint(bits), func(b *testing.B) {
			pool, err := NewPool(benchKeyBits(b, bits), PoolConfig{Workers: 1, Capacity: 1})
			if err != nil {
				b.Fatal(err)
			}
			defer pool.Close()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := pool.generate(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSplitStats times one (node, feature, channel) unit of the split
// statistics at train-he's shape (n = 2400, 1024-bit key): bucket is the
// single pass plus the prefix sums of the left sides, which is all
// core.bucketStats computes (rights are derived on shares); dots the 2b
// indicator dot products of Eqn 7 that it replaced.
func BenchmarkSplitStats(b *testing.B) {
	const n = 2400
	pk := benchKeyBits(b, 1024)
	ch := make([]*Ciphertext, n)
	for t, c := range benchResidues(b, pk.N2, n) {
		ch[t] = &Ciphertext{C: c}
	}
	for _, splits := range []int{3, 8} {
		bucket := make([]int, n)
		lefts := make([][]*big.Int, splits)
		rights := make([][]*big.Int, splits)
		for s := range lefts {
			lefts[s], rights[s] = make([]*big.Int, n), make([]*big.Int, n)
		}
		for t := range bucket {
			bucket[t] = t % (splits + 1)
			for s := 0; s < splits; s++ {
				l := int64(0)
				if bucket[t] <= s {
					l = 1
				}
				lefts[s][t], rights[s][t] = big.NewInt(l), big.NewInt(1-l)
			}
		}
		b.Run(fmt.Sprintf("n=%d/b=%d/bucket", n, splits), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				bk, err := pk.BucketProducts(ch, bucket, splits+1)
				if err != nil {
					b.Fatal(err)
				}
				left := bk[0]
				for s := 1; s < splits; s++ {
					left = pk.Add(left, bk[s])
				}
			}
		})
		b.Run(fmt.Sprintf("n=%d/b=%d/dots", n, splits), func(b *testing.B) {
			b.ReportAllocs()
			xss := append(append([][]*big.Int{}, lefts...), rights...)
			chs := make([][]*Ciphertext, len(xss))
			for i := range chs {
				chs[i] = ch
			}
			for i := 0; i < b.N; i++ {
				if _, err := pk.DotVec(xss, chs, 1); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSubVec times the homomorphic difference of two n = 2400 vectors
// under a 1024-bit key — a node's right child mask, α − α_l — per element:
// one ModInverse per block of subBlock against one per element.
func BenchmarkSubVec(b *testing.B) {
	const n = 2400
	pk := benchKeyBits(b, 1024)
	vec := func() []*Ciphertext {
		out := make([]*Ciphertext, n)
		for t, c := range benchResidues(b, pk.N2, n) {
			out[t] = &Ciphertext{C: c}
		}
		return out
	}
	as, bs := vec(), vec()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pk.SubVec(as, bs, 1)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/elem")
}

// BenchmarkPackCiphertexts times the shift-and-add that puts one batch of
// released predictions into a ciphertext: 34 slots of 30 bits, what a
// 1024-bit key holds of a decision tree's (core.releasePacked).
func BenchmarkPackCiphertexts(b *testing.B) {
	const slots, slotW = 34, 30
	pk := benchKeyBits(b, 1024)
	cts := make([]*Ciphertext, slots)
	for j, c := range benchResidues(b, pk.N2, slots) {
		cts[j] = &Ciphertext{C: c}
	}
	b.Run(fmt.Sprint(slots), func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			pk.PackCiphertexts(cts, slotW)
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*slots), "ns/slot")
	})
}
