package service

import (
	"context"
	"fmt"

	"repro/internal/journal"
	"repro/internal/lppm"
	"repro/internal/obs"
	"repro/internal/rng"
)

// JournalConfig wires a stream journal into a gateway.
type JournalConfig struct {
	// Dir is the journal directory (required).
	Dir string
	// FS overrides the filesystem (fault-injection tests); nil uses the
	// host filesystem.
	FS journal.FS
}

// RecoveryInfo reports what Recover found — surfaced by /healthz.
type RecoveryInfo struct {
	// Resumed is true when state was recovered from an existing journal
	// (false for a fresh directory).
	Resumed bool `json:"resumed"`
	// Users is how many per-user checkpoints were recovered.
	Users int `json:"users"`
	// Generation is the deployment generation serving resumes at.
	Generation uint64 `json:"generation"`
	// Segments and Entries describe the scanned journal: candidate
	// segment files and records folded.
	Segments int `json:"segments"`
	Entries  int `json:"entries"`
	// Corrupted is true when a torn or corrupt frame was found (recovery
	// truncated to the last valid record — expected after a crash).
	Corrupted bool `json:"corrupted"`
}

// Recover opens (or creates) the stream journal in jc.Dir and
// builds a journaling gateway from it. A fresh directory starts a new
// journal seeded from cfg; an existing one resumes: the journaled
// deployment (mechanism by name from the standard lppm registry,
// parameters, overrides, generation) replaces cfg's, and every
// checkpointed user is parked in the restore tables so their streams
// rebuild lazily — re-seeked to the journaled rng position with the
// pending window re-buffered — on their first record. A gateway
// recovered this way produces, for every user, the byte-for-byte output
// a never-restarted gateway would have produced from the same input (see
// DESIGN.md §13 for the argument; the crash matrix in recover_test.go
// checks it at every record boundary).
//
// Opening always installs a fresh compacted snapshot segment and
// removes older ones, so recovery cost is bounded by the checkpointed
// user set, not by journal history.
func Recover(ctx context.Context, cfg Config, jc JournalConfig) (*Gateway, *RecoveryInfo, error) {
	if jc.Dir == "" {
		return nil, nil, fmt.Errorf("service: journal dir required")
	}
	var recStart int64
	if cfg.Tracer != nil {
		recStart = obs.Stamp()
	}
	w, st, open, err := journal.Open(jc.Dir, journal.Options{FS: jc.FS})
	if err != nil {
		return nil, nil, err
	}
	info := &RecoveryInfo{
		Resumed:   open.Resumed,
		Segments:  open.Segments,
		Entries:   open.Entries,
		Corrupted: open.Corrupted,
	}
	var gen uint64
	var restore map[string]journal.Checkpoint
	if st == nil {
		// Fresh journal: seed it with the configured deployment. The
		// snapshot must describe a normalized config (defaults filled,
		// overrides merged) so a later recovery rebuilds exactly what
		// served.
		if err := cfg.normalize(); err != nil {
			return nil, nil, closeOnErr(w, err)
		}
		st = journal.NewState(cfg.Seed)
		st.Deploy = journal.Deployment{
			Mechanism: cfg.Mechanism.Name(),
			Params:    map[string]float64(cfg.Params),
		}
		if len(cfg.Overrides) > 0 {
			st.Deploy.Overrides = make(map[string]map[string]float64, len(cfg.Overrides))
			for u, p := range cfg.Overrides {
				st.Deploy.Overrides[u] = map[string]float64(p)
			}
		}
	} else {
		// Resumed: the journal is authoritative. A different generator or
		// seed would silently break every re-seeked stream, so reject
		// rather than prefer either side.
		if st.Generator != rng.Generator {
			gen := st.Generator
			if gen == "" {
				gen = rng.LegacyGenerator
			}
			return nil, nil, closeOnErr(w, fmt.Errorf(
				"service: journal %s was written with random generator %q but this build draws from %q, so its streams cannot resume (move the journal aside to start fresh)",
				jc.Dir, gen, rng.Generator))
		}
		if cfg.Seed != st.Seed {
			return nil, nil, closeOnErr(w, fmt.Errorf(
				"service: journal %s was written under seed %d, config says %d",
				jc.Dir, st.Seed, cfg.Seed))
		}
		mech, err := lppm.NewRegistry().Get(st.Deploy.Mechanism)
		if err != nil {
			return nil, nil, closeOnErr(w, fmt.Errorf("service: recover deployment: %w", err))
		}
		cfg.Mechanism = mech
		cfg.Params = lppm.Params(st.Deploy.Params).Clone()
		cfg.Overrides = nil
		if len(st.Deploy.Overrides) > 0 {
			cfg.Overrides = make(map[string]lppm.Params, len(st.Deploy.Overrides))
			for u, p := range st.Deploy.Overrides {
				cfg.Overrides[u] = lppm.Params(p).Clone()
			}
		}
		gen = st.Deploy.Generation
		restore = make(map[string]journal.Checkpoint, len(st.Users))
		for u, us := range st.Users {
			restore[u] = us.Checkpoint
		}
		info.Users = len(restore)
		info.Generation = gen
	}
	// Install writes the compacted snapshot segment and removes the old
	// ones; only then can the gateway append.
	if err := w.Install(st); err != nil {
		return nil, nil, closeOnErr(w, err)
	}
	g, err := newGateway(ctx, cfg, w, gen, restore)
	if err != nil {
		return nil, nil, closeOnErr(w, err)
	}
	if cfg.Tracer != nil {
		// Recovery is rare and load-bearing: always record its span, and
		// freeze a flight snapshot when state was actually resumed so
		// the post-restart /debug/flight explains what was rebuilt.
		sp := cfg.Tracer.ForceRootAt("recover", recStart)
		sp.Attr("dir", jc.Dir).
			AttrInt("segments", int64(info.Segments)).
			AttrInt("entries", int64(info.Entries)).
			AttrInt("users", int64(info.Users)).
			AttrUint("generation", info.Generation)
		if info.Resumed {
			sp.Attr("resumed", "true")
		}
		if info.Corrupted {
			sp.Attr("corrupted", "true")
		}
		sp.End()
		if info.Resumed {
			cfg.Tracer.Flight().Snapshot("recovery: resumed from journal")
		}
	}
	return g, info, nil
}

// closeOnErr releases the journal writer on a failed recovery, keeping
// the original error (the close error, if any, is secondary and the
// writer's sticky state already records it).
func closeOnErr(w *journal.Writer, err error) error {
	_ = w.Close() //lppm:allow droppederr -- best-effort release on the error path; err (returned) is the primary failure
	return err
}
