package lp

import (
	"math"
	"testing"
)

func solveBoth(t *testing.T, p *Problem) (*Solution, *Solution) {
	t.Helper()
	rev, err := p.Solve(Options{})
	if err != nil {
		t.Fatalf("Solve(%s): %v", p.Name(), err)
	}
	den, err := p.SolveDense(0)
	if err != nil {
		t.Fatalf("SolveDense(%s): %v", p.Name(), err)
	}
	return rev, den
}

func wantOptimal(t *testing.T, p *Problem, sol *Solution, obj float64) {
	t.Helper()
	if sol.Status != Optimal {
		t.Fatalf("%s: status = %v, want optimal", p.Name(), sol.Status)
	}
	if math.Abs(sol.Objective-obj) > 1e-6*(1+math.Abs(obj)) {
		t.Errorf("%s: objective = %g, want %g (x = %v)", p.Name(), sol.Objective, obj, sol.X)
	}
	if err := p.CheckFeasible(sol.X, 1e-6); err != nil {
		t.Errorf("%s: %v", p.Name(), err)
	}
}

func TestSimpleMin(t *testing.T) {
	// min -x - 2y  s.t. x + y <= 4, x <= 3, y <= 2, x,y >= 0.
	// Optimum at (2, 2): objective -6.
	p := New("simple")
	x := p.AddVar("x", 0, 3, -1)
	y := p.AddVar("y", 0, 2, -2)
	c := p.AddCon("cap", LE, 4)
	p.SetCoef(c, x, 1)
	p.SetCoef(c, y, 1)
	rev, den := solveBoth(t, p)
	wantOptimal(t, p, rev, -6)
	wantOptimal(t, p, den, -6)
	if math.Abs(rev.Value(x)-2) > 1e-7 || math.Abs(rev.Value(y)-2) > 1e-7 {
		t.Errorf("x, y = %g, %g; want 2, 2", rev.Value(x), rev.Value(y))
	}
}

func TestEqualityAndGE(t *testing.T) {
	// min 2a + 3b  s.t. a + b = 10, a >= 2, b >= 3  (as bounds).
	// Optimum a=7, b=3: 14+9 = 23.
	p := New("eq")
	a := p.AddVar("a", 2, Inf, 2)
	b := p.AddVar("b", 3, Inf, 3)
	c := p.AddCon("sum", EQ, 10)
	p.SetCoef(c, a, 1)
	p.SetCoef(c, b, 1)
	rev, den := solveBoth(t, p)
	wantOptimal(t, p, rev, 23)
	wantOptimal(t, p, den, 23)
}

func TestGERow(t *testing.T) {
	// min x + y  s.t. 2x + y >= 8, x + 3y >= 9, x,y >= 0.
	// Vertices: (0,8)->8, (9,0)->9, intersection (3,2)->5. Optimum 5.
	p := New("ge")
	x := p.AddVar("x", 0, Inf, 1)
	y := p.AddVar("y", 0, Inf, 1)
	c1 := p.AddCon("c1", GE, 8)
	p.SetCoef(c1, x, 2)
	p.SetCoef(c1, y, 1)
	c2 := p.AddCon("c2", GE, 9)
	p.SetCoef(c2, x, 1)
	p.SetCoef(c2, y, 3)
	rev, den := solveBoth(t, p)
	wantOptimal(t, p, rev, 5)
	wantOptimal(t, p, den, 5)
}

func TestInfeasible(t *testing.T) {
	p := New("infeasible")
	x := p.AddVar("x", 0, 1, 1)
	c := p.AddCon("impossible", GE, 5)
	p.SetCoef(c, x, 1)
	rev, den := solveBoth(t, p)
	if rev.Status != Infeasible {
		t.Errorf("revised: status = %v, want infeasible", rev.Status)
	}
	if den.Status != Infeasible {
		t.Errorf("dense: status = %v, want infeasible", den.Status)
	}
}

func TestUnbounded(t *testing.T) {
	p := New("unbounded")
	x := p.AddVar("x", 0, Inf, -1)
	y := p.AddVar("y", 0, Inf, 0)
	c := p.AddCon("link", LE, 3) // y - x <= 3 does not bound x.
	p.SetCoef(c, y, 1)
	p.SetCoef(c, x, -1)
	rev, den := solveBoth(t, p)
	if rev.Status != Unbounded {
		t.Errorf("revised: status = %v, want unbounded", rev.Status)
	}
	if den.Status != Unbounded {
		t.Errorf("dense: status = %v, want unbounded", den.Status)
	}
}

func TestBoundFlip(t *testing.T) {
	// min -x s.t. (no binding row), 0 <= x <= 7 with a slack-only row.
	p := New("flip")
	x := p.AddVar("x", 0, 7, -1)
	y := p.AddVar("y", 0, 100, 1)
	c := p.AddCon("loose", LE, 1000)
	p.SetCoef(c, x, 1)
	p.SetCoef(c, y, 1)
	rev, den := solveBoth(t, p)
	wantOptimal(t, p, rev, -7)
	wantOptimal(t, p, den, -7)
}

func TestNegativeLowerBound(t *testing.T) {
	// min x  s.t. x >= -5 (bound), x + y = 0, 0 <= y <= 5.
	// Optimum x = -5, y = 5: objective -5.
	p := New("neglb")
	x := p.AddVar("x", -5, Inf, 1)
	y := p.AddVar("y", 0, 5, 0)
	c := p.AddCon("bal", EQ, 0)
	p.SetCoef(c, x, 1)
	p.SetCoef(c, y, 1)
	rev, den := solveBoth(t, p)
	wantOptimal(t, p, rev, -5)
	wantOptimal(t, p, den, -5)
}

func TestFreeVariable(t *testing.T) {
	// min x + 2y with free x: x + y >= 4, x - y <= 2 → at y=1, x=3 obj 5;
	// try corners: y free to grow costs more; optimum x=3,y=1 → 5.
	p := New("free")
	x := p.AddVar("x", math.Inf(-1), Inf, 1)
	y := p.AddVar("y", 0, Inf, 2)
	c1 := p.AddCon("c1", GE, 4)
	p.SetCoef(c1, x, 1)
	p.SetCoef(c1, y, 1)
	c2 := p.AddCon("c2", LE, 2)
	p.SetCoef(c2, x, 1)
	p.SetCoef(c2, y, -1)
	rev, den := solveBoth(t, p)
	wantOptimal(t, p, rev, 5)
	wantOptimal(t, p, den, 5)
}

func TestDegenerateBeale(t *testing.T) {
	// Beale's classic cycling example. Bland fallback must terminate.
	// min -0.75x4 + 150x5 - 0.02x6 + 6x7
	// s.t. 0.25x4 - 60x5 - 0.04x6 + 9x7 <= 0
	//      0.5x4 - 90x5 - 0.02x6 + 3x7 <= 0
	//      x6 <= 1;  optimum -0.05.
	p := New("beale")
	x4 := p.AddVar("x4", 0, Inf, -0.75)
	x5 := p.AddVar("x5", 0, Inf, 150)
	x6 := p.AddVar("x6", 0, Inf, -0.02)
	x7 := p.AddVar("x7", 0, Inf, 6)
	c1 := p.AddCon("c1", LE, 0)
	p.SetCoef(c1, x4, 0.25)
	p.SetCoef(c1, x5, -60)
	p.SetCoef(c1, x6, -0.04)
	p.SetCoef(c1, x7, 9)
	c2 := p.AddCon("c2", LE, 0)
	p.SetCoef(c2, x4, 0.5)
	p.SetCoef(c2, x5, -90)
	p.SetCoef(c2, x6, -0.02)
	p.SetCoef(c2, x7, 3)
	c3 := p.AddCon("c3", LE, 1)
	p.SetCoef(c3, x6, 1)
	rev, den := solveBoth(t, p)
	wantOptimal(t, p, rev, -0.05)
	wantOptimal(t, p, den, -0.05)

	// Also with Bland forced on from the start.
	bl, err := p.Solve(Options{Bland: true})
	if err != nil {
		t.Fatal(err)
	}
	wantOptimal(t, p, bl, -0.05)
}

func TestFixedVariable(t *testing.T) {
	// A variable fixed by equal bounds participates as a constant.
	p := New("fixed")
	x := p.AddVar("x", 3, 3, 10)
	y := p.AddVar("y", 0, Inf, 1)
	c := p.AddCon("c", GE, 5)
	p.SetCoef(c, x, 1)
	p.SetCoef(c, y, 1)
	rev, den := solveBoth(t, p)
	wantOptimal(t, p, rev, 32) // x=3 (cost 30) + y=2 (cost 2)
	wantOptimal(t, p, den, 32)
}

func TestNoConstraints(t *testing.T) {
	p := New("nocons")
	p.AddVar("a", 0, 5, -2)
	p.AddVar("b", 1, 9, 3)
	p.AddVar("c", 0, 2, 0)
	sol, err := p.Solve(Options{})
	if err != nil {
		t.Fatal(err)
	}
	wantOptimal(t, p, sol, -10+3)
}

func TestNoConstraintsUnbounded(t *testing.T) {
	p := New("noconsub")
	p.AddVar("a", 0, Inf, -1)
	sol, err := p.Solve(Options{})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != Unbounded {
		t.Fatalf("status = %v, want unbounded", sol.Status)
	}
}

func TestAccumulatingCoefficients(t *testing.T) {
	p := New("accum")
	x := p.AddVar("x", 0, Inf, 1)
	c := p.AddCon("c", GE, 6)
	p.SetCoef(c, x, 1)
	p.SetCoef(c, x, 2) // accumulates to 3
	if got := p.Coef(c, x); got != 3 {
		t.Fatalf("Coef = %g, want 3", got)
	}
	sol, err := p.Solve(Options{})
	if err != nil {
		t.Fatal(err)
	}
	wantOptimal(t, p, sol, 2) // x = 2
}

func TestRedundantRows(t *testing.T) {
	// Duplicate constraints must not confuse phase 1.
	p := New("redundant")
	x := p.AddVar("x", 0, Inf, 1)
	y := p.AddVar("y", 0, Inf, 1)
	for i := 0; i < 4; i++ {
		c := p.AddCon("dup", GE, 4)
		p.SetCoef(c, x, 1)
		p.SetCoef(c, y, 1)
	}
	rev, den := solveBoth(t, p)
	wantOptimal(t, p, rev, 4)
	wantOptimal(t, p, den, 4)
}

func TestDualsOnOptimal(t *testing.T) {
	// For min c^T x, Ax >= b, x >= 0 the duals satisfy y >= 0 and weak
	// duality y^T b <= c^T x. Check on the GE test problem.
	p := New("duals")
	x := p.AddVar("x", 0, Inf, 1)
	y := p.AddVar("y", 0, Inf, 1)
	c1 := p.AddCon("c1", GE, 8)
	p.SetCoef(c1, x, 2)
	p.SetCoef(c1, y, 1)
	c2 := p.AddCon("c2", GE, 9)
	p.SetCoef(c2, x, 1)
	p.SetCoef(c2, y, 3)
	sol, err := p.Solve(Options{})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != Optimal {
		t.Fatalf("status %v", sol.Status)
	}
	if len(sol.Dual) != 2 {
		t.Fatalf("len(Dual) = %d", len(sol.Dual))
	}
	dualObj := sol.Dual[0]*8 + sol.Dual[1]*9
	if dualObj > sol.Objective+1e-6 {
		t.Errorf("weak duality violated: y·b = %g > %g", dualObj, sol.Objective)
	}
	// All variables here have lower bound 0 and are basic at optimum, so
	// strong duality holds exactly.
	if math.Abs(dualObj-sol.Objective) > 1e-6 {
		t.Errorf("strong duality: y·b = %g, obj = %g", dualObj, sol.Objective)
	}
}

func TestIterLimit(t *testing.T) {
	p := New("limit")
	x := p.AddVar("x", 0, Inf, 1)
	y := p.AddVar("y", 0, Inf, 1)
	c := p.AddCon("c", GE, 8)
	p.SetCoef(c, x, 2)
	p.SetCoef(c, y, 1)
	sol, err := p.Solve(Options{MaxIters: 1})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != IterLimit && sol.Status != Optimal {
		t.Fatalf("status = %v, want iteration limit or optimal", sol.Status)
	}
}

func TestSenseString(t *testing.T) {
	if LE.String() != "<=" || GE.String() != ">=" || EQ.String() != "=" {
		t.Error("unexpected sense strings")
	}
	if Sense(42).String() != "Sense(42)" {
		t.Error("unexpected fallback sense string")
	}
	if Optimal.String() != "optimal" || Infeasible.String() != "infeasible" ||
		Unbounded.String() != "unbounded" || IterLimit.String() != "iteration limit" {
		t.Error("unexpected status strings")
	}
	if Status(42).String() != "Status(42)" {
		t.Error("unexpected fallback status string")
	}
}

func TestPanics(t *testing.T) {
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: expected panic", name)
			}
		}()
		f()
	}
	p := New("panics")
	v := p.AddVar("ok", 0, 1, 0)
	c := p.AddCon("ok", LE, 1)
	mustPanic("inverted bounds", func() { p.AddVar("bad", 2, 1, 0) })
	mustPanic("NaN cost", func() { p.AddVar("bad", 0, 1, math.NaN()) })
	mustPanic("inf cost", func() { p.AddVar("bad", 0, 1, Inf) })
	mustPanic("inf rhs", func() { p.AddCon("bad", LE, Inf) })
	mustPanic("NaN coef", func() { p.SetCoef(c, v, math.NaN()) })
	mustPanic("objective mismatch", func() { p.Objective([]float64{1, 2}) })
}

func TestObjectiveAndActivity(t *testing.T) {
	p := New("eval")
	x := p.AddVar("x", 0, 10, 2)
	y := p.AddVar("y", 0, 10, -1)
	c := p.AddCon("c", LE, 100)
	p.SetCoef(c, x, 3)
	p.SetCoef(c, y, 4)
	xs := []float64{2, 5}
	if got := p.Objective(xs); got != 2*2-5 {
		t.Errorf("Objective = %g", got)
	}
	act := p.Activity(xs)
	if act[0] != 3*2+4*5 {
		t.Errorf("Activity = %v", act)
	}
	_ = x
	_ = y
}
