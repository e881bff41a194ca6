package lp

import (
	"bytes"
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestFormatRoundTrip(t *testing.T) {
	p := New("demo problem")
	x := p.AddVar("x one", 0, 3, -1)
	y := p.AddVar("y", -2, Inf, 2.5)
	z := p.AddVar("z", math.Inf(-1), Inf, 0)
	c1 := p.AddCon("cap", LE, 4)
	p.SetCoef(c1, x, 1)
	p.SetCoef(c1, y, 1.5)
	c2 := p.AddCon("bal", EQ, 0)
	p.SetCoef(c2, y, 1)
	p.SetCoef(c2, z, -1)
	c3 := p.AddCon("floor", GE, -3)
	p.SetCoef(c3, z, 2)

	var buf bytes.Buffer
	if err := Write(&buf, p); err != nil {
		t.Fatal(err)
	}
	q, err := Parse(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if q.Name() != "demo_problem" {
		t.Errorf("name = %q", q.Name())
	}
	if q.NumVars() != 3 || q.NumCons() != 3 {
		t.Fatalf("shape %d/%d", q.NumVars(), q.NumCons())
	}
	for i := 0; i < 3; i++ {
		lo1, hi1 := p.Bounds(Var(i))
		lo2, hi2 := q.Bounds(Var(i))
		if lo1 != lo2 || hi1 != hi2 || p.Cost(Var(i)) != q.Cost(Var(i)) {
			t.Errorf("var %d mismatch", i)
		}
		for j := 0; j < 3; j++ {
			if p.Coef(Con(j), Var(i)) != q.Coef(Con(j), Var(i)) {
				t.Errorf("coef (%d,%d) mismatch", j, i)
			}
		}
	}
	// Same optimum on both.
	a, err := p.Solve(Options{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := q.Solve(Options{})
	if err != nil {
		t.Fatal(err)
	}
	if a.Status != b.Status {
		t.Fatalf("status %v vs %v", a.Status, b.Status)
	}
	if a.Status == Optimal && math.Abs(a.Objective-b.Objective) > 1e-9 {
		t.Errorf("objective %g vs %g", a.Objective, b.Objective)
	}
}

func TestParseErrors(t *testing.T) {
	for _, bad := range []string{
		"nonsense 1 2\n",
		"var onlyname\n",
		"var x bad 1 0\n",
		"var x 0 bad 0\n",
		"var x 0 1 bad\n",
		"con c ?? 3\n",
		"con c <= bad\n",
		"con c <=\n",
		"coef 0 0 1\n",                          // no con/var declared
		"var x 0 1 0\ncon c <= 1\ncoef 5 0 1\n", // bad indices
		"var x 0 1 0\ncon c <= 1\ncoef 0 9 1\n",
		"var x 0 1 0\ncon c <= 1\ncoef 0 0 bad\n",
		"problem a b\n",
		"var x 5 1 0\n",   // inverted bounds
		"var x inf 1 0\n", // infinite lower bound
		"var x 0 1 NaN\n", // NaN cost
		"var x 0 1 inf\n",
		"var x NaN 1 0\n",
		"var x -inf -inf 0\n",
		"var x 0 1 0\ncon c <= 1\ncoef 0 0 inf\n",
		"var x 0 1 0\ncon c <= 1\ncoef 0 0 1e308\ncoef 0 0 1e308\n", // sum overflows
		"con c <= NaN\n",
		"con c >= -inf\n",
	} {
		if _, err := Parse(strings.NewReader(bad)); err == nil {
			t.Errorf("Parse(%q) succeeded", bad)
		} else if !strings.Contains(err.Error(), "line ") {
			t.Errorf("Parse(%q) error %q names no line", bad, err)
		}
	}
	// Comments and blanks are fine.
	p, err := Parse(strings.NewReader("# header\n\nproblem p\nvar x 0 inf 1\n"))
	if err != nil {
		t.Fatal(err)
	}
	if p.NumVars() != 1 {
		t.Error("comment handling broken")
	}
}

func TestQuickFormatRoundTripSolves(t *testing.T) {
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := randomProblem(rng)
		var buf bytes.Buffer
		if err := Write(&buf, p); err != nil {
			return false
		}
		q, err := Parse(&buf)
		if err != nil {
			t.Logf("seed %d: parse: %v", seed, err)
			return false
		}
		a, err := p.Solve(Options{})
		if err != nil {
			return false
		}
		b, err := q.Solve(Options{})
		if err != nil {
			return false
		}
		if a.Status != b.Status {
			t.Logf("seed %d: status %v vs %v", seed, a.Status, b.Status)
			return false
		}
		if a.Status == Optimal && math.Abs(a.Objective-b.Objective) > 1e-6*(1+math.Abs(a.Objective)) {
			t.Logf("seed %d: obj %g vs %g", seed, a.Objective, b.Objective)
			return false
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// FuzzParse checks that Parse never panics and that any problem it
// accepts survives Write→Parse unchanged: writing the reparsed problem
// reproduces the first serialization byte for byte. The seed corpus lives
// in testdata/fuzz/FuzzParse.
func FuzzParse(f *testing.F) {
	f.Add("problem p\nvar x 0 inf 1\ncon c >= 2\ncoef 0 0 1\n")
	f.Fuzz(func(t *testing.T, in string) {
		p, err := Parse(strings.NewReader(in))
		if err != nil {
			return
		}
		var first bytes.Buffer
		if err := Write(&first, p); err != nil {
			t.Fatal(err)
		}
		q, err := Parse(bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatalf("reparse of %q: %v", first.String(), err)
		}
		var second bytes.Buffer
		if err := Write(&second, q); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatalf("round trip changed the problem:\n%s\nvs\n%s", first.String(), second.String())
		}
	})
}
