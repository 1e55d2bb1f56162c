package bitvec

import (
	"testing"

	"repro/internal/rng"
)

// The word-level operations are checked against bit-by-bit references
// built only from Get and Set, at every offset 0..maxOffset, with
// lengths on both sides of each 64-bit boundary.
const maxOffset = 130

var spanLens = []int{0, 1, 7, 8, 63, 64, 65, 127, 128, 129}

func randVec(r *rng.Rand, n int) Vector {
	v := New(n)
	for i := 0; i < n; i++ {
		v.Set(i, uint(r.Uint64())&1)
	}
	return v
}

// checkTail fails unless v has exactly ⌈n/64⌉ words and every bit of
// the last word at or past n is zero.
func checkTail(t *testing.T, op string, v Vector) {
	t.Helper()
	if len(v.w) != (v.n+63)/64 {
		t.Fatalf("%s: %d words for %d bits", op, len(v.w), v.n)
	}
	if r := v.n & 63; r != 0 && v.w[len(v.w)-1]>>r != 0 {
		t.Fatalf("%s: bits past Len=%d set: last word %#x", op, v.n, v.w[len(v.w)-1])
	}
}

func sameBits(a, b Vector) bool {
	if a.Len() != b.Len() {
		return false
	}
	for i := 0; i < a.Len(); i++ {
		if a.Get(i) != b.Get(i) {
			return false
		}
	}
	return true
}

func TestBytesMatchBitwise(t *testing.T) {
	r := rng.New(21)
	for n := 0; n <= maxOffset+64; n++ {
		v := randVec(r, n)
		got := v.Bytes()
		want := make([]byte, (n+7)/8)
		for i := 0; i < n; i++ {
			want[i/8] |= byte(v.Get(i)) << (i % 8)
		}
		if string(got) != string(want) {
			t.Fatalf("n=%d: Bytes = %x, want %x", n, got, want)
		}

		// FromBytes over the same bytes with every high bit of the last
		// byte set must ignore those bits.
		dirty := append([]byte(nil), got...)
		if n%8 != 0 {
			dirty[len(dirty)-1] |= 0xff << (n % 8)
		}
		back := FromBytes(dirty, n)
		checkTail(t, "FromBytes", back)
		if !back.Equal(v) || !sameBits(back, v) {
			t.Fatalf("n=%d: FromBytes(Bytes) = %v, want %v", n, back, v)
		}

		// SetBytes into a reused vector must overwrite every stale bit.
		for i := range back.w {
			back.w[i] = ^uint64(0)
		}
		back.SetBytes(dirty)
		checkTail(t, "SetBytes", back)
		if !back.Equal(v) || !sameBits(back, v) {
			t.Fatalf("n=%d: SetBytes over stale bits = %v, want %v", n, back, v)
		}
	}
}

func TestFromBytesIgnoresHighBitsOfLastByte(t *testing.T) {
	for n := 1; n <= 24; n++ {
		if n%8 == 0 {
			continue
		}
		v := FromBytes([]byte{0xff, 0xff, 0xff}, n)
		checkTail(t, "FromBytes", v)
		if v.OnesCount() != n {
			t.Fatalf("n=%d: OnesCount = %d", n, v.OnesCount())
		}
		if !v.Equal(FromBytes([]byte{0xff, 0xff, 0xff}[:(n+7)/8], n)) {
			t.Fatalf("n=%d: result depends on bytes past the last", n)
		}
		want := New(n)
		for i := 0; i < n; i++ {
			want.Set(i, 1)
		}
		if !v.Equal(want) {
			t.Fatalf("n=%d: %v, want %v", n, v, want)
		}
	}
}

func TestUintSetUintMatchBitwise(t *testing.T) {
	r := rng.New(22)
	const n = maxOffset + 64 + 1
	for from := 0; from <= maxOffset; from++ {
		for width := 0; width <= 64; width++ {
			v := randVec(r, n)
			var want uint64
			for i := 0; i < width; i++ {
				want |= uint64(v.Get(from+i)) << i
			}
			if got := v.Uint(from, width); got != want {
				t.Fatalf("Uint(%d, %d) = %#x, want %#x", from, width, got, want)
			}

			val := r.Uint64()
			ref := v.Clone()
			for i := 0; i < width; i++ {
				ref.Set(from+i, uint(val>>i)&1)
			}
			v.SetUint(from, width, val)
			checkTail(t, "SetUint", v)
			if !sameBits(v, ref) {
				t.Fatalf("SetUint(%d, %d, %#x) = %v, want %v", from, width, val, v, ref)
			}
		}
	}
	// A write that ends at the last bit must leave the tail clear.
	for _, n := range []int{1, 63, 65, 100, 129} {
		for width := 1; width <= 64 && width <= n; width++ {
			v := New(n)
			v.SetUint(n-width, width, ^uint64(0))
			checkTail(t, "SetUint at end", v)
			if v.OnesCount() != width {
				t.Fatalf("n=%d width=%d: OnesCount = %d", n, width, v.OnesCount())
			}
		}
	}
}

func TestSliceMatchesBitwise(t *testing.T) {
	r := rng.New(23)
	v := randVec(r, maxOffset+spanLens[len(spanLens)-1])
	for from := 0; from <= maxOffset; from++ {
		for _, l := range spanLens {
			s := v.Slice(from, from+l)
			checkTail(t, "Slice", s)
			want := New(l)
			for i := 0; i < l; i++ {
				want.Set(i, v.Get(from+i))
			}
			if !sameBits(s, want) || !s.Equal(want) {
				t.Fatalf("Slice(%d, %d) = %v, want %v", from, from+l, s, want)
			}
		}
	}
}

func TestCopyFromMatchesBitwise(t *testing.T) {
	r := rng.New(24)
	n := maxOffset + spanLens[len(spanLens)-1]
	for dst := 0; dst <= maxOffset; dst++ {
		for _, l := range spanLens {
			v := randVec(r, n)
			src := randVec(r, l)
			ref := v.Clone()
			for i := 0; i < l; i++ {
				ref.Set(dst+i, src.Get(i))
			}
			v.CopyFrom(src, dst)
			checkTail(t, "CopyFrom", v)
			if !sameBits(v, ref) {
				t.Fatalf("CopyFrom(len %d, %d) = %v, want %v", l, dst, v, ref)
			}
		}
	}
	// Copying to the very end of a vector must leave its tail clear.
	for _, l := range spanLens {
		for _, extra := range []int{0, 1, 63} {
			v := New(l + extra)
			src := New(l)
			for i := 0; i < l; i++ {
				src.Set(i, 1)
			}
			v.CopyFrom(src, extra)
			checkTail(t, "CopyFrom at end", v)
			if v.OnesCount() != l {
				t.Fatalf("len %d at %d: OnesCount = %d", l, extra, v.OnesCount())
			}
		}
	}
}

func TestWordsAliasStorage(t *testing.T) {
	v := New(130)
	v.Set(0, 1)
	v.Set(64, 1)
	v.Set(129, 1)
	w := v.Words()
	if len(w) != 3 || w[0] != 1 || w[1] != 1 || w[2] != 2 {
		t.Fatalf("Words = %#x", w)
	}
	if len(New(0).Words()) != 0 {
		t.Fatal("empty vector has words")
	}
}

func TestWordOpRangePanics(t *testing.T) {
	v := New(100)
	for name, fn := range map[string]func(){
		"Uint past end":      func() { v.Uint(40, 61) },
		"Uint width 65":      func() { v.Uint(0, 65) },
		"SetUint past end":   func() { v.SetUint(99, 2, 0) },
		"SetUint negative":   func() { v.SetUint(-1, 1, 0) },
		"Slice reversed":     func() { v.Slice(10, 9) },
		"Slice past end":     func() { v.Slice(0, 101) },
		"CopyFrom past end":  func() { v.CopyFrom(New(10), 91) },
		"CopyFrom negative":  func() { v.CopyFrom(New(1), -1) },
		"FromBytes too long": func() { FromBytes([]byte{0}, 9) },
		"SetBytes too long":  func() { New(9).SetBytes([]byte{0}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", name)
				}
			}()
			fn()
		}()
	}
}
