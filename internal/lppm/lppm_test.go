package lppm

import (
	"testing"
	"time"

	"repro/internal/geo"
	"repro/internal/rng"
	"repro/internal/trace"
)

var (
	t0     = time.Date(2008, 5, 17, 12, 0, 0, 0, time.UTC)
	basePt = geo.Point{Lat: 37.7749, Lng: -122.4194}
)

func mkTrace(t testing.TB, user string, n int) *trace.Trace {
	t.Helper()
	recs := make([]trace.Record, n)
	for i := range recs {
		recs[i] = trace.Record{
			User:  user,
			Time:  t0.Add(time.Duration(i) * time.Minute),
			Point: basePt.Offset(float64(i)*30, float64(i%7)*10),
		}
	}
	tr, err := trace.NewTrace(user, recs)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestParamsGetClone(t *testing.T) {
	p := Params{"epsilon": 0.01}
	if v, err := p.Get("epsilon"); err != nil || v != 0.01 {
		t.Errorf("Get = %v, %v", v, err)
	}
	if _, err := p.Get("missing"); err == nil {
		t.Error("missing parameter should error")
	}
	c := p.Clone()
	c["epsilon"] = 9
	if p["epsilon"] != 0.01 {
		t.Error("Clone must not alias")
	}
}

func TestParamSpecValidate(t *testing.T) {
	s := ParamSpec{Name: "x", Min: 1, Max: 10}
	if err := s.Validate(5); err != nil {
		t.Errorf("5 should validate: %v", err)
	}
	if err := s.Validate(0.5); err == nil {
		t.Error("below min should fail")
	}
	if err := s.Validate(11); err == nil {
		t.Error("above max should fail")
	}
}

func TestValidateParamsAndDefaults(t *testing.T) {
	g := NewGeoIndistinguishability()
	if err := ValidateParams(g, Defaults(g)); err != nil {
		t.Errorf("defaults should validate: %v", err)
	}
	if err := ValidateParams(g, Params{}); err == nil {
		t.Error("empty params should fail")
	}
	if err := ValidateParams(g, Params{EpsilonParam: 5}); err == nil {
		t.Error("out-of-range epsilon should fail")
	}
}

func TestRegistry(t *testing.T) {
	r := NewRegistry()
	names := r.Names()
	want := []string{"cloaking", "dummies", "elastic", "gaussian", "geoi", "identity", "promesse", "rounding", "sampling"}
	if len(names) != len(want) {
		t.Fatalf("Names = %v, want %v", names, want)
	}
	for i := range want {
		if names[i] != want[i] {
			t.Errorf("Names[%d] = %q, want %q", i, names[i], want[i])
		}
	}
	if _, err := r.Get("geoi"); err != nil {
		t.Errorf("Get(geoi): %v", err)
	}
	if _, err := r.Get("nope"); err == nil {
		t.Error("unknown mechanism should error")
	}
	if err := r.Register(Identity{}); err == nil {
		t.Error("duplicate registration should error")
	}
}

func TestRegistryZeroValueUsable(t *testing.T) {
	var r Registry
	if err := r.Register(Identity{}); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Get("identity"); err != nil {
		t.Error(err)
	}
}

func TestProtectDatasetDeterministicPerUser(t *testing.T) {
	d := trace.NewDataset()
	d.Add(mkTrace(t, "a", 20))
	d.Add(mkTrace(t, "b", 20))
	g := NewGeoIndistinguishability()
	p := Params{EpsilonParam: 0.01}

	out1, err := ProtectDataset(d, g, p, rng.New(5))
	if err != nil {
		t.Fatal(err)
	}
	out2, err := ProtectDataset(d, g, p, rng.New(5))
	if err != nil {
		t.Fatal(err)
	}
	for _, u := range d.Users() {
		ta, tb := out1.Trace(u), out2.Trace(u)
		for i := range ta.Records {
			if ta.Records[i].Point != tb.Records[i].Point {
				t.Fatalf("user %s record %d differs across identical runs", u, i)
			}
		}
	}
	// Different users must receive different noise.
	same := 0
	a, b := out1.Trace("a"), out1.Trace("b")
	for i := range a.Records {
		da := geo.Equirectangular(a.Records[i].Point, d.Trace("a").Records[i].Point)
		db := geo.Equirectangular(b.Records[i].Point, d.Trace("b").Records[i].Point)
		if da == db {
			same++
		}
	}
	if same > 2 {
		t.Errorf("%d identical displacements across users", same)
	}
}

func TestProtectDatasetRejectsBadParams(t *testing.T) {
	d := trace.NewDataset()
	d.Add(mkTrace(t, "a", 3))
	if _, err := ProtectDataset(d, NewGeoIndistinguishability(), Params{}, rng.New(1)); err == nil {
		t.Error("missing epsilon should error")
	}
}
