package lppm

import (
	"fmt"
	"strings"

	"repro/internal/rng"
	"repro/internal/trace"
)

// Pipeline chains mechanisms: the trace is protected by each stage in
// order, the output of one feeding the next (e.g. temporal sampling for
// data minimization, then GEO-I noise on what remains). Deployments
// routinely stack defenses exactly like this, which makes the pipeline the
// natural source of *multi-parameter* configuration problems — the general
// f(p1..pn) of the paper's Equation 1 — beyond single-knob mechanisms.
//
// Parameter names are namespaced as "<stage>.<param>" ("sampling.period_sec",
// "geoi.epsilon"), so stages of the same type cannot collide and sweep
// definitions stay explicit.
type Pipeline struct {
	name   string
	stages []Mechanism
}

// NewPipeline builds a pipeline of the given stages, applied in order. At
// least one stage is required; duplicate stage names are rejected (name
// the composition unambiguous).
func NewPipeline(name string, stages ...Mechanism) (*Pipeline, error) {
	if name == "" {
		return nil, fmt.Errorf("lppm: pipeline needs a name")
	}
	if len(stages) == 0 {
		return nil, fmt.Errorf("lppm: pipeline %q needs at least one stage", name)
	}
	seen := make(map[string]bool, len(stages))
	for _, s := range stages {
		if seen[s.Name()] {
			return nil, fmt.Errorf("lppm: pipeline %q has duplicate stage %q", name, s.Name())
		}
		seen[s.Name()] = true
	}
	return &Pipeline{name: name, stages: append([]Mechanism(nil), stages...)}, nil
}

// Name implements Mechanism.
func (p *Pipeline) Name() string { return p.name }

// Params implements Mechanism: the union of every stage's parameters under
// namespaced names.
func (p *Pipeline) Params() []ParamSpec {
	var specs []ParamSpec
	for _, s := range p.stages {
		for _, spec := range s.Params() {
			spec.Name = s.Name() + "." + spec.Name
			specs = append(specs, spec)
		}
	}
	return specs
}

// Protect implements Mechanism: stages run in order, each drawing from its
// own derived random stream so that adding a stage never perturbs the
// randomness of the others.
func (p *Pipeline) Protect(t *trace.Trace, params Params, r *rng.Source) (*trace.Trace, error) {
	cur := t
	for _, s := range p.stages {
		stageParams, err := p.stageParams(s, params)
		if err != nil {
			return nil, err
		}
		next, err := s.Protect(cur, stageParams, r.Named(s.Name()))
		if err != nil {
			return nil, fmt.Errorf("lppm: pipeline %q stage %q: %w", p.name, s.Name(), err)
		}
		cur = next
	}
	return cur, nil
}

// stageParams extracts and un-namespaces the parameters of one stage.
func (p *Pipeline) stageParams(s Mechanism, params Params) (Params, error) {
	prefix := s.Name() + "."
	out := make(Params)
	for _, spec := range s.Params() {
		v, err := params.Get(prefix + spec.Name)
		if err != nil {
			return nil, fmt.Errorf("lppm: pipeline %q: %w", p.name, err)
		}
		out[spec.Name] = v
	}
	return out, nil
}

// SplitParamName separates a namespaced pipeline parameter into its stage
// and stage-local parameter names; ok is false when the name carries no
// namespace.
func SplitParamName(name string) (stage, param string, ok bool) {
	i := strings.IndexByte(name, '.')
	if i <= 0 || i == len(name)-1 {
		return "", "", false
	}
	return name[:i], name[i+1:], true
}

var _ Mechanism = (*Pipeline)(nil)
