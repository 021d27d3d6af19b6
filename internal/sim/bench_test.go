package sim

import (
	"fmt"
	"math/rand"
	"testing"
)

// BenchmarkKernelFire times one event fired and its successor posted,
// at a steady queue depth: every firing posts one event a seeded
// exponential delay ahead, as each worker's step posts the next, so
// the pending count holds at n.
func BenchmarkKernelFire(b *testing.B) {
	for _, n := range []int{16, 256, 4096} {
		b.Run(fmt.Sprintf("pending=%d", n), func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			delays := make([]float64, 1024)
			for i := range delays {
				delays[i] = rng.ExpFloat64() * float64(n)
			}
			var k Kernel
			var id FnID
			next := 0
			id = k.Register(func() {
				k.PostAfter(delays[next%len(delays)], id)
				next++
			})
			for i := 0; i < n; i++ {
				k.PostAfter(delays[i%len(delays)], id)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				k.Step()
			}
		})
	}
}
