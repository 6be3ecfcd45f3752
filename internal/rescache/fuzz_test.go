package rescache

import (
	"testing"

	"repro/internal/kernel"
)

// fuzzKernels cover every cacheable output shape: Xs in place (sort),
// Dst (scan, and topk with its K), and a scalar (sum).
var fuzzKernels = []string{"sort", "scan", "sum", "topk"}

// fuzzVariants lists, for a generated input of length n >= 32, the
// word each variant mutates: none (the pristine record), two indices
// the sketch never reads (those variants share the pristine input's
// sketch and differ only in the fingerprint) and two it does read.
func fuzzVariants(n int) []int {
	step := sketchStep(n) // >= 2 once n >= 32, so index 1 is never read
	hi := n - 2
	if hi%step == 0 {
		hi--
	}
	return []int{-1, 1, hi, step, n - 1}
}

// FuzzCacheVsSerial drives a byte-chosen sequence of Lookup, compute,
// Insert and Bump calls over a few small inputs for two tenants under
// a budget small enough to fill, so calls run both while every miss
// is stored and once admission waits for a second sighting. Oracle: every hit's restored record
// passes k.Check against k.Serial of the pristine input, so neither a
// shared sketch, an overwritten doorkeeper slot, a stale token nor an
// eviction can ever serve another input's result.
func FuzzCacheVsSerial(f *testing.F) {
	f.Add(uint64(1), uint8(32), []byte{0, 0, 1, 0, 1, 0, 1, 4, 1, 4, 0, 8})
	f.Add(uint64(2), uint8(100), []byte{1, 1, 1, 1, 0, 5, 0, 5, 3, 0, 2, 0, 1, 1, 1, 5, 1, 9, 1, 9, 1, 1})
	f.Add(uint64(3), uint8(200), []byte{1, 130, 1, 130, 1, 2, 1, 2, 3, 128, 1, 130, 1, 2, 1, 14, 1, 14, 1, 2})
	f.Add(uint64(4), uint8(0), []byte{})
	f.Fuzz(func(t *testing.T, seed uint64, nb uint8, ops []byte) {
		n := 32 + int(nb)
		muts := fuzzVariants(n)
		type input struct {
			k    *kernel.Kernel
			mut  int
			want *kernel.Args
		}
		var inputs []input
		fresh := func(in input) *kernel.Args {
			a := in.k.Gen(n, seed)
			if in.mut >= 0 {
				a.Xs[in.mut] ^= 1<<40 | int64(in.mut)
			}
			return a
		}
		for _, name := range fuzzKernels {
			k := kernel.MustLookup(name)
			for _, m := range muts {
				in := input{k: k, mut: m}
				in.want = fresh(in)
				k.Serial(in.want)
				inputs = append(inputs, in)
			}
			base := inputs[len(inputs)-len(muts):]
			if sk := sketch(k, fresh(base[0])); sketch(k, fresh(base[1])) != sk || sketch(k, fresh(base[2])) != sk {
				t.Fatalf("%s n=%d: an unsampled mutation changed the sketch", name, n)
			}
		}

		c := New(Config{MaxBytes: 8 << 10})
		tenants := [2]string{"t0", "t1"}
		type pending struct {
			in     input
			tenant string
			tok    Token
			a      *kernel.Args
		}
		var queue []pending
		if len(ops) > 512 {
			ops = ops[:512]
		}
		for i := 0; i+1 < len(ops); i += 2 {
			op, arg := ops[i]%4, ops[i+1]
			tenant := tenants[arg>>7]
			switch op {
			case 0, 1: // look up; on a miss compute, then insert now (1) or later (0)
				in := inputs[int(arg&0x7f)%len(inputs)]
				a := fresh(in)
				tok, hit := c.Lookup(tenant, in.k, a)
				if hit {
					if err := in.k.Check(a, in.want); err != nil {
						t.Fatalf("op %d: %s mut %d hit served a wrong result: %v", i/2, in.k.Name, in.mut, err)
					}
					continue
				}
				in.k.Serial(a)
				if !tok.Valid() {
					continue
				}
				if op == 1 {
					c.Insert(tenant, in.k, tok, a)
				} else {
					queue = append(queue, pending{in, tenant, tok, a})
				}
			case 2: // insert the oldest computed miss
				if len(queue) > 0 {
					p := queue[0]
					queue = queue[1:]
					c.Insert(p.tenant, p.in.k, p.tok, p.a)
				}
			case 3:
				c.Bump(tenant)
			}
		}
		if st := c.Stats(); st.Bytes > 8<<10 {
			t.Fatalf("cache holds %d bytes over its 8 KiB budget", st.Bytes)
		}
	})
}
