package stat

import (
	"math"
	"math/big"
	"testing"
)

// The series constants in lambertw.go are derived here again from the
// defining equation w·e^w = x in exact rational arithmetic, and LambertWm1
// is checked against a 256-bit reference solution of that equation.

// ratPoly is a truncated power series with exact rational coefficients.
type ratPoly []*big.Rat

func newRatPoly(n int) ratPoly {
	p := make(ratPoly, n)
	for i := range p {
		p[i] = new(big.Rat)
	}
	return p
}

// mul returns a·b truncated to len(a) terms.
func (a ratPoly) mul(b ratPoly) ratPoly {
	out := newRatPoly(len(a))
	var t big.Rat
	for i := range a {
		for j := 0; i+j < len(a) && j < len(b); j++ {
			out[i+j].Add(out[i+j], t.Mul(a[i], b[j]))
		}
	}
	return out
}

// TestLambertWm1BranchSeriesCoefficients reverts the branch-point
// expansion. With w = −1 + v and p² = 2(1 + e·x), w·e^w = x becomes
// 2(1 + (v−1)e^v) = Σ_{n≥2} 2(n−1)/n!·vⁿ = p². Putting v = Σ_k c_k·p^k
// with c₁ = 1 (v and p share their sign on W₋₁), the coefficient of
// p^(k+1) is 2c_k plus terms in c₁…c_{k−1}, and must vanish for k ≥ 2.
func TestLambertWm1BranchSeriesCoefficients(t *testing.T) {
	n := len(branchSeries)
	c := newRatPoly(n + 1) // c[k] multiplies p^k; one spare order for the check
	c[1].SetInt64(1)
	lhs := func() ratPoly {
		sum := newRatPoly(n + 1)
		pow := c
		fact := big.NewInt(1)
		for m := 2; m <= n; m++ {
			pow = pow.mul(c)
			fact.Mul(fact, big.NewInt(int64(m)))
			coef := new(big.Rat).SetFrac(big.NewInt(int64(2*(m-1))), fact)
			for i := range sum {
				sum[i].Add(sum[i], new(big.Rat).Mul(coef, pow[i]))
			}
		}
		return sum
	}
	for k := 2; k < n; k++ {
		rest := lhs()[k+1] // c[k] is still zero
		c[k].Quo(rest, big.NewRat(-2, 1))
	}
	for k, got := range lhs()[:n] {
		want := new(big.Rat)
		if k == 2 {
			want.SetInt64(1)
		}
		if got.Cmp(want) != 0 {
			t.Fatalf("series does not reproduce p²: coefficient of p^%d is %v", k, got.RatString())
		}
	}
	for k := 0; k < n; k++ {
		want := big.NewRat(-1, 1) // w = −1 + v
		if k > 0 {
			want = c[k]
		}
		if f, _ := want.Float64(); branchSeries[k] != f { //lppm:allow floatcmp -- each constant must be the float64 nearest the exact coefficient
			t.Errorf("branchSeries[%d] = %v, want %v = %v", k, branchSeries[k], want.RatString(), f)
		}
	}
}

// TestLambertWm1AsymptoticSeriesCoefficients solves the expansion at 0⁻ by
// fixed-point iteration. Taking logs of w·e^w = x on w < −1 gives
// w + ln(−w) = L₁; with w = L₁ − L₂ + v and σ = 1/L₁ that is
// v = −ln(1 − σ(L₂ − v)), a contraction in σ. v is a series in σ whose
// coefficients are polynomials in L₂, so each iteration fixes one more
// power of σ exactly.
func TestLambertWm1AsymptoticSeriesCoefficients(t *testing.T) {
	const order = len(asymptoticSeries) + 1 // powers of σ and of L₂ kept: 0…order-1
	type biPoly [order][order]big.Rat       // [σ power][L₂ power]
	mul := func(a, b *biPoly) *biPoly {
		var out biPoly
		var t big.Rat
		for i := 0; i < order; i++ {
			for j := 0; j < order; j++ {
				for k := 0; i+k < order; k++ {
					for l := 0; j+l < order; l++ {
						out[i+k][j+l].Add(&out[i+k][j+l], t.Mul(&a[i][j], &b[k][l]))
					}
				}
			}
		}
		return &out
	}
	var v biPoly
	for range order {
		var z biPoly // z = σ·(L₂ − v)
		z[1][1].SetInt64(1)
		for i := 0; i+1 < order; i++ {
			for j := 0; j < order; j++ {
				z[i+1][j].Sub(&z[i+1][j], &v[i][j])
			}
		}
		var next biPoly // −ln(1 − z) = Σ z^k/k
		pow := &z
		for k := 1; k < order; k++ {
			inv := big.NewRat(1, int64(k))
			for i := range order {
				for j := range order {
					var term big.Rat
					next[i][j].Add(&next[i][j], term.Mul(inv, &pow[i][j]))
				}
			}
			pow = mul(pow, &z)
		}
		v = next
	}
	for j := 0; j < order; j++ {
		if v[0][j].Sign() != 0 {
			t.Fatalf("σ⁰ coefficient of L₂^%d is %v, want 0", j, v[0][j].RatString())
		}
	}
	for n := 1; n < order; n++ {
		for m := 0; m < order; m++ {
			if f, _ := v[n][m].Float64(); asymptoticSeries[n-1][m] != f { //lppm:allow floatcmp -- each constant must be the float64 nearest the exact coefficient
				t.Errorf("asymptoticSeries[%d][%d] = %v, want %v", n-1, m, asymptoticSeries[n-1][m], v[n][m].RatString())
			}
		}
	}
}

const refPrec = 256

// bigLn2 is ln 2 to refPrec bits, from ln 2 = Σ_{k≥1} 1/(k·2^k).
var bigLn2 = func() *big.Float {
	sum := new(big.Float).SetPrec(refPrec)
	for k := 1; k <= refPrec+8; k++ {
		term := new(big.Float).SetPrec(refPrec).SetInt64(int64(k))
		term.SetMantExp(term, k)
		sum.Add(sum, new(big.Float).SetPrec(refPrec).Quo(big.NewFloat(1), term))
	}
	return sum
}()

// bigExp is e^y to about refPrec bits: y = k·ln 2 + r with |r| ≤ ln 2,
// then Taylor for e^r.
func bigExp(y *big.Float) *big.Float {
	kf, _ := new(big.Float).Quo(y, bigLn2).Float64()
	k := int(math.Round(kf))
	r := new(big.Float).SetPrec(refPrec).Mul(bigLn2, big.NewFloat(float64(k)))
	r.Sub(y, r)
	sum := new(big.Float).SetPrec(refPrec).SetInt64(1)
	term := new(big.Float).SetPrec(refPrec).SetInt64(1)
	for i := 1; i < 80; i++ {
		term.Mul(term, r)
		term.Quo(term, big.NewFloat(float64(i)))
		sum.Add(sum, term)
	}
	return sum.SetMantExp(sum, k)
}

// bigResidual is |w·e^w − x|/|x| evaluated exactly enough for the float64
// pair (x, w): the true error of w as an answer, free of float64 rounding.
func bigResidual(x, w float64) float64 {
	bw := new(big.Float).SetPrec(refPrec).SetFloat64(w)
	f := new(big.Float).SetPrec(refPrec).Mul(bw, bigExp(bw))
	f.Sub(f, big.NewFloat(x))
	r, _ := f.Quo(f, big.NewFloat(x)).Float64()
	return math.Abs(r)
}

// bigWm1 refines start by Newton steps on w·e^w − x at refPrec bits until
// a step is below 2⁻²⁰⁰ relative; it reports false if that never happens.
func bigWm1(x, start float64) (*big.Float, bool) {
	w := new(big.Float).SetPrec(refPrec).SetFloat64(start)
	bx := new(big.Float).SetPrec(refPrec).SetFloat64(x)
	one := big.NewFloat(1)
	for range 20 {
		ew := bigExp(w)
		f := new(big.Float).SetPrec(refPrec).Mul(w, ew)
		f.Sub(f, bx)
		d := new(big.Float).SetPrec(refPrec).Add(w, one)
		d.Mul(d, ew)
		f.Quo(f, d)
		w.Sub(w, f)
		if f.Sign() == 0 || f.MantExp(nil)-w.MantExp(nil) < -200 {
			return w, true
		}
	}
	return w, false
}

// refPoints samples [−1/e, 0): log-spaced toward the branch point (1 + e·x
// from 1e-16 to 1), log-spaced toward 0⁻ (down to 1e-300), and uniform.
func refPoints() []float64 {
	var xs []float64
	for k := 1; k <= 16*8; k++ {
		q := math.Pow(10, -float64(k)/8)
		xs = append(xs, (q-1)/math.E)
	}
	for k := 2; k <= 300*4; k++ {
		xs = append(xs, -math.Pow(10, -float64(k)/4))
	}
	for i := 0; i < 512; i++ {
		xs = append(xs, -(float64(i)+0.5)/512/math.E)
	}
	xs = append(xs, -1/math.E, math.Nextafter(-1/math.E, 0), -0.2, math.Nextafter(-0.2, 0), -0x1p-53/math.E)
	return xs
}

// TestLambertWm1BigReference checks LambertWm1 against the 256-bit
// solution. Away from the branch point (1 + e·x > 1e-6) w agrees with it
// to 1e-13·|w|; closer in, W₋₁ is too ill-conditioned for that (a 1-ulp
// change in x moves it by more), so there only the residual is checked. The
// residual stays at or below 4e-15 over the domain GEO-I draws from,
// x ∈ [−1/e, −2⁻⁵³/e]; below that w's own ulp exceeds what 4e-15 allows,
// and the bound is two ulps of w.
func TestLambertWm1BigReference(t *testing.T) {
	const geoiMin = -0x1p-53 / math.E
	worstRes, worstAgree := 0.0, 0.0
	for _, x := range refPoints() {
		w, err := LambertWm1(x)
		if err != nil {
			t.Fatalf("LambertWm1(%v): %v", x, err)
		}
		if w > -1 {
			t.Errorf("LambertWm1(%v) = %v > −1", x, w)
		}
		res := bigResidual(x, w)
		bound := 4e-15
		if x > geoiMin {
			bound = 0x1p-51 * math.Abs(w)
		} else {
			worstRes = math.Max(worstRes, res)
		}
		if res > bound {
			t.Errorf("LambertWm1(%v) = %v: residual %.3g > %.3g", x, w, res, bound)
		}
		q := new(big.Float).SetPrec(refPrec).SetFloat64(x)
		q.Mul(q, new(big.Float).SetPrec(refPrec).Quo(big.NewFloat(1), bigExp(big.NewFloat(-1))))
		q.Add(q, big.NewFloat(1))
		if qf, _ := q.Float64(); qf <= 1e-6 {
			continue
		}
		ref, ok := bigWm1(x, w)
		if !ok {
			t.Fatalf("reference Newton did not converge at x=%v", x)
		}
		diff := new(big.Float).SetPrec(refPrec).SetFloat64(w)
		rel, _ := diff.Sub(diff, ref).Quo(diff, ref).Float64()
		worstAgree = math.Max(worstAgree, math.Abs(rel))
		if math.Abs(rel) > 1e-13 {
			t.Errorf("LambertWm1(%v) = %v, reference %v: relative error %.3g", x, w, ref.Text('g', 20), rel)
		}
	}
	t.Logf("worst GEO-I-domain residual %.3g, worst relative error %.3g", worstRes, worstAgree)
}
