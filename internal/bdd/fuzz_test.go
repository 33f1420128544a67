package bdd

import (
	"testing"
)

// FuzzBDDOps interprets the fuzz input as a program over a register file
// of BDDs (≤12 variables, auto-reorder armed at a tiny threshold) and
// checks every result against a brute-force truth-table oracle, plus the
// manager's structural invariants after each GC or reorder. Variables are
// paired (2p, 2p+1) like the compiler's cur/next interleaving, so the
// order-preserving renaming is exercised under reordering too. The high
// bit of the first byte turns the unique table's hash tags off, so every
// probe compares every node in its run.
func FuzzBDDOps(f *testing.F) {
	f.Add([]byte{2, 0, 0, 1, 1, 2, 3, 2, 0, 1, 11})
	f.Add([]byte{4, 0, 0, 0, 0, 2, 1, 4, 1, 5, 4, 2, 0, 1, 7, 2, 0xff, 12, 6, 3, 0, 1, 2})
	f.Add([]byte{3, 0, 0, 2, 1, 1, 4, 3, 3, 0, 1, 9, 4, 0, 10, 11, 8, 5, 3, 4, 0x55})
	f.Add([]byte{1, 0, 0, 0, 1, 3, 2, 0, 1, 5, 0, 9, 1, 2, 11, 9, 2, 0, 12})
	f.Add([]byte{0x82, 0, 0, 0, 0, 2, 1, 4, 1, 5, 4, 2, 0, 1, 7, 2, 0xff, 12, 6, 3, 0, 1, 2}) // tags off
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		pairs := 1 + int(data[0])%6 // 2..12 variables, always paired
		zeroTag := data[0]&0x80 != 0
		nvars := 2 * pairs
		data = data[1:]
		words := (1<<nvars + 63) / 64

		m := New(nvars, Config{AutoReorder: true, ReorderStart: 64, CacheSize: 1 << 12})
		if zeroTag {
			m.tagMask = 0
		}
		groups := make([][]int, pairs)
		permCN := make([]int, nvars)
		permNC := make([]int, nvars)
		for p := 0; p < pairs; p++ {
			c, n := 2*p, 2*p+1
			groups[p] = []int{c, n}
			permCN[c], permCN[n] = n, n
			permNC[c], permNC[n] = c, c
		}
		m.SetGroups(groups)
		curToNext := m.NewPermutation(permCN)

		full := func() []uint64 {
			tt := make([]uint64, words)
			for w := range tt {
				tt[w] = ^uint64(0)
			}
			if nvars < 6 {
				tt[0] = 1<<(1<<nvars) - 1
			}
			return tt
		}
		varTT := func(v int) []uint64 {
			tt := make([]uint64, words)
			for mask := 0; mask < 1<<nvars; mask++ {
				if mask&(1<<v) != 0 {
					tt[mask/64] |= 1 << (mask % 64)
				}
			}
			return tt
		}
		mask := func(tt []uint64) { // trim to 2^nvars bits
			if nvars < 6 {
				tt[0] &= 1<<(1<<nvars) - 1
			}
		}

		const nregs = 6
		regs := make([]Ref, nregs)
		oracle := make([][]uint64, nregs)
		for i := range regs {
			regs[i] = m.Protect(True)
			oracle[i] = full()
		}
		setReg := func(i int, r Ref, tt []uint64) {
			m.Unprotect(regs[i])
			regs[i] = m.Protect(r)
			mask(tt)
			oracle[i] = tt
		}
		verify := func(i int) {
			assign := make([]bool, nvars)
			for mk := 0; mk < 1<<nvars; mk++ {
				for v := 0; v < nvars; v++ {
					assign[v] = mk&(1<<v) != 0
				}
				want := oracle[i][mk/64]&(1<<(mk%64)) != 0
				if got := m.Eval(regs[i], assign); got != want {
					t.Fatalf("reg %d: mismatch at assignment %0*b: got %v, want %v",
						i, nvars, mk, got, want)
				}
			}
		}

		pc := 0
		next := func() byte {
			if pc >= len(data) {
				return 0
			}
			b := data[pc]
			pc++
			return b
		}

		steps := 0
		for pc < len(data) && steps < 48 {
			steps++
			op := next()
			dst := int(next()) % nregs
			switch op % 13 {
			case 0: // load Var
				v := int(next()) % nvars
				setReg(dst, m.Var(v), varTT(v))
			case 1: // load NVar
				v := int(next()) % nvars
				tt := varTT(v)
				for w := range tt {
					tt[w] = ^tt[w]
				}
				setReg(dst, m.NVar(v), tt)
			case 2: // And
				a, b := int(next())%nregs, int(next())%nregs
				tt := make([]uint64, words)
				for w := range tt {
					tt[w] = oracle[a][w] & oracle[b][w]
				}
				setReg(dst, m.And(regs[a], regs[b]), tt)
			case 3: // Or
				a, b := int(next())%nregs, int(next())%nregs
				tt := make([]uint64, words)
				for w := range tt {
					tt[w] = oracle[a][w] | oracle[b][w]
				}
				setReg(dst, m.Or(regs[a], regs[b]), tt)
			case 4: // Xor
				a, b := int(next())%nregs, int(next())%nregs
				tt := make([]uint64, words)
				for w := range tt {
					tt[w] = oracle[a][w] ^ oracle[b][w]
				}
				setReg(dst, m.Xor(regs[a], regs[b]), tt)
			case 5: // Not
				a := int(next()) % nregs
				tt := make([]uint64, words)
				for w := range tt {
					tt[w] = ^oracle[a][w]
				}
				setReg(dst, m.Not(regs[a]), tt)
			case 6: // Ite
				a, b, c := int(next())%nregs, int(next())%nregs, int(next())%nregs
				tt := make([]uint64, words)
				for w := range tt {
					tt[w] = oracle[a][w]&oracle[b][w] | ^oracle[a][w]&oracle[c][w]
				}
				setReg(dst, m.Ite(regs[a], regs[b], regs[c]), tt)
			case 7: // Exists over a variable subset
				a := int(next()) % nregs
				vmask := int(next()) | int(next())<<8
				var vars []int
				for v := 0; v < nvars; v++ {
					if vmask&(1<<v) != 0 {
						vars = append(vars, v)
					}
				}
				tt := append([]uint64(nil), oracle[a]...)
				for _, v := range vars {
					out := make([]uint64, words)
					for mk := 0; mk < 1<<nvars; mk++ {
						lo, hi := mk&^(1<<v), mk|1<<v
						bit := tt[lo/64]&(1<<(lo%64)) != 0 || tt[hi/64]&(1<<(hi%64)) != 0
						if bit {
							out[mk/64] |= 1 << (mk % 64)
						}
					}
					tt = out
				}
				setReg(dst, m.Exists(regs[a], m.Cube(vars)), tt)
			case 8: // AndExists
				a, b := int(next())%nregs, int(next())%nregs
				vmask := int(next())
				var vars []int
				for v := 0; v < nvars; v++ {
					if vmask&(1<<v) != 0 {
						vars = append(vars, v)
					}
				}
				tt := make([]uint64, words)
				for w := range tt {
					tt[w] = oracle[a][w] & oracle[b][w]
				}
				for _, v := range vars {
					out := make([]uint64, words)
					for mk := 0; mk < 1<<nvars; mk++ {
						lo, hi := mk&^(1<<v), mk|1<<v
						if tt[lo/64]&(1<<(lo%64)) != 0 || tt[hi/64]&(1<<(hi%64)) != 0 {
							out[mk/64] |= 1 << (mk % 64)
						}
					}
					tt = out
				}
				setReg(dst, m.AndExists(regs[a], regs[b], m.Cube(vars)), tt)
			case 9: // Permute cur->next, when the function is cur-only
				a := int(next()) % nregs
				curOnly := true
				for _, v := range m.Support(regs[a]) {
					if v%2 != 0 {
						curOnly = false
						break
					}
				}
				if !curOnly {
					continue
				}
				tt := make([]uint64, words)
				for mk := 0; mk < 1<<nvars; mk++ {
					// g(x) = f(x with each cur bit read from its next bit)
					src := 0
					for p := 0; p < pairs; p++ {
						if mk&(1<<(2*p+1)) != 0 {
							src |= 1 << (2 * p)
						}
					}
					if oracle[a][src/64]&(1<<(src%64)) != 0 {
						tt[mk/64] |= 1 << (mk % 64)
					}
				}
				setReg(dst, m.Permute(regs[a], curToNext), tt)
			case 10: // GC
				m.GC()
				checkInvariants(t, m)
				continue
			case 11: // manual reorder
				m.Reorder()
				checkInvariants(t, m)
				for p := 0; p < pairs; p++ {
					if m.VarLevel(2*p+1) != m.VarLevel(2*p)+1 {
						t.Fatalf("pair %d split by reorder", p)
					}
				}
				for i := range regs {
					verify(i)
				}
				continue
			case 12: // auto reorder at safe point
				if _, ran := m.ReorderIfPending(); ran {
					checkInvariants(t, m)
					for i := range regs {
						verify(i)
					}
				}
				continue
			}
			verify(dst)
		}
		// Final sweep: a reorder plus every register against its oracle.
		m.Reorder()
		checkInvariants(t, m)
		for i := range regs {
			verify(i)
		}
	})
}
