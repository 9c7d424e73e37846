package service

import (
	"testing"

	"repro/internal/leakcheck"
)

// The gateway runs shard, watcher, and journal-pump goroutines per instance;
// leakcheck fails this binary if any survives the tests (DESIGN.md §11).
func TestMain(m *testing.M) { leakcheck.Main(m) }
