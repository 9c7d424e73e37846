package journal

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/geo"
	"repro/internal/trace"
)

// fuzzSeedState builds a representative state for seeding the fuzzer.
func fuzzSeedState() *State {
	rec := func(u string, ns int64, lat, lng float64) trace.Record {
		return trace.Record{User: u, Time: time.Unix(0, ns).UTC(), Point: geo.Point{Lat: lat, Lng: lng}}
	}
	st := NewState(42)
	st.Deploy = Deployment{
		Generation: 3,
		Mechanism:  "geo-indistinguishability",
		Params:     map[string]float64{"epsilon": 1.5},
		Overrides:  map[string]map[string]float64{"u2": {"epsilon": 0.7}},
	}
	st.applyCheckpoint(Checkpoint{
		User: "u1", Generation: 3, RNGPos: 17, In: 8, Out: 8, Windows: 2,
		Pending: []trace.Record{rec("u1", 123456789, 48.85, 2.35)},
		Window:  []trace.Record{rec("u1", 123456790, 48.86, 2.36), rec("u1", 123456791, 48.87, 2.37)},
	})
	return st
}

// fuzzSeedSegment renders the seed state as journal bytes: a snapshot
// frame followed by a checkpoint and a deploy frame.
func fuzzSeedSegment() []byte {
	st := fuzzSeedState()
	b := appendEntryFrame(nil, entry{kind: kindSnapshot, snap: st})
	b = appendEntryFrame(b, entry{kind: kindCheckpoint, cp: Checkpoint{
		User: "u3", RNGPos: 5, In: 4, Out: 4, Windows: 1,
		Window: []trace.Record{{User: "u3", Time: time.Unix(0, 9).UTC(), Point: geo.Point{Lat: 1, Lng: 2}}},
	}})
	b = appendEntryFrame(b, entry{kind: kindDeploy, dep: Deployment{Generation: 4, Mechanism: "rounding"}})
	return b
}

// appendFrame frames a raw payload onto dst — length, CRC-32C, payload —
// so the corpus can hold structurally valid frames whose payloads the
// encoder would never produce.
func appendFrame(dst, payload []byte) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(payload)))
	dst = binary.LittleEndian.AppendUint32(dst, crc32.Checksum(payload, castagnoli))
	return append(dst, payload...)
}

// FuzzDecode drives the segment decoder with arbitrary bytes. The
// decoder sits on the crash-recovery trust boundary: whatever a torn,
// bit-flipped or hostile journal file contains, it must recover to the
// last valid record and never panic. The invariants checked are the
// append-only log contract: (1) no panic (the fuzzer's own crash
// detection), (2) consumed never exceeds input and always lands on a
// frame boundary of the valid prefix, (3) re-decoding the consumed
// prefix yields the same entries with no error — corruption is confined
// to the torn tail, (4) whatever decoded re-encodes and re-decodes to
// the same frames (round-trip stability).
func FuzzDecode(f *testing.F) {
	seg := fuzzSeedSegment()
	f.Add(seg)
	// Truncated tails at interesting offsets.
	f.Add(seg[:len(seg)-1])
	f.Add(seg[:frameHeader+1])
	f.Add(seg[:frameHeader-3])
	// Bit-flipped CRC and bit-flipped payload.
	flip := append([]byte(nil), seg...)
	flip[5] ^= 0x40
	f.Add(flip)
	flip2 := append([]byte(nil), seg...)
	flip2[frameHeader+3] ^= 0x01
	f.Add(flip2)
	// Oversized frame length prefix with no data behind it.
	over := binary.LittleEndian.AppendUint32(nil, maxFrame+1)
	over = binary.LittleEndian.AppendUint32(over, 0)
	f.Add(over)
	// Huge element count inside a structurally valid frame.
	p := []byte{kindCheckpoint}
	p = binary.LittleEndian.AppendUint32(p, 0) // user ""
	for i := 0; i < 5; i++ {
		p = binary.LittleEndian.AppendUint64(p, 1)
	}
	p = binary.LittleEndian.AppendUint32(p, 1<<30) // pending count lies
	f.Add(appendFrame(nil, p))
	f.Add([]byte{})
	f.Add([]byte("go test fuzz corpus"))

	f.Fuzz(func(t *testing.T, data []byte) {
		entries, consumed, _ := decodeSegment(data)
		if consumed < 0 || consumed > len(data) {
			t.Fatalf("consumed %d outside [0,%d]", consumed, len(data))
		}
		// (3) the consumed prefix is fully valid on its own.
		again, consumed2, err2 := decodeSegment(data[:consumed])
		if err2 != nil {
			t.Fatalf("valid prefix failed to re-decode: %v", err2)
		}
		if consumed2 != consumed || len(again) != len(entries) {
			t.Fatalf("prefix re-decode: %d bytes/%d entries, want %d/%d",
				consumed2, len(again), consumed, len(entries))
		}
		// (4) decoded entries re-encode and re-decode stably.
		var re []byte
		for _, e := range entries {
			re = appendEntryFrame(re, e)
		}
		rt, rtc, rterr := decodeSegment(re)
		if rterr != nil || rtc != len(re) {
			t.Fatalf("re-encoded entries failed to decode: %v (%d/%d bytes)", rterr, rtc, len(re))
		}
		if len(rt) != len(entries) {
			t.Fatalf("round trip lost entries: %d, want %d", len(rt), len(entries))
		}
		// Folding must also be panic-free whatever decoded.
		var st *State
		for _, e := range entries {
			st = st.apply(e)
		}
		_ = st
	})
}

// TestCodecRoundTrip pins the encode/decode pair on a fully populated
// state: every field survives, including sub-second timestamps (the
// NDJSON wire truncates to seconds; the journal must not).
func TestCodecRoundTrip(t *testing.T) {
	seg := fuzzSeedSegment()
	entries, consumed, err := decodeSegment(seg)
	if err != nil || consumed != len(seg) {
		t.Fatalf("decodeSegment: %v, consumed %d of %d", err, consumed, len(seg))
	}
	if len(entries) != 3 {
		t.Fatalf("got %d entries, want 3", len(entries))
	}
	st := fuzzSeedState()
	got := entries[0].snap
	if got.Seed != st.Seed {
		t.Errorf("seed %d, want %d", got.Seed, st.Seed)
	}
	if got.Deploy.Overrides["u2"]["epsilon"] != 0.7 {
		t.Errorf("override lost: %+v", got.Deploy.Overrides)
	}
	u1 := got.Users["u1"]
	if u1 == nil {
		t.Fatalf("user u1 lost")
	}
	if u1.RNGPos != 17 || u1.In != 8 || u1.Out != 8 || u1.Windows != 2 {
		t.Errorf("counters lost: %+v", u1.Checkpoint)
	}
	if len(u1.Pending) != 1 || u1.Pending[0].Time.UnixNano() != 123456789 {
		t.Errorf("pending lost sub-second precision: %+v", u1.Pending)
	}
	if len(u1.Retained) != 1 || u1.Retained[0].Start != 6 || len(u1.Retained[0].Recs) != 2 {
		t.Errorf("retained ring: %+v", u1.Retained)
	}
	if entries[2].dep.Generation != 4 || entries[2].dep.Mechanism != "rounding" {
		t.Errorf("deploy entry: %+v", entries[2].dep)
	}
}

// TestDecodeRejectsTrailingBytes pins that a frame whose payload decodes
// but leaves unconsumed bytes is corruption, not silently accepted.
func TestDecodeRejectsTrailingBytes(t *testing.T) {
	p := appendEntryFrame(nil, entry{kind: kindDeploy, dep: Deployment{Generation: 1, Mechanism: "m"}})[frameHeader:]
	p = append(p, 0xEE)
	if _, err := decodeEntry(p); err == nil {
		t.Fatalf("trailing byte accepted")
	}
}

// TestRegenFuzzCorpus writes the committed seed corpus for FuzzDecode —
// the torn-tail, bit-flipped-CRC and oversized-frame cases named in the
// package contract — so `go test -run Fuzz` exercises them even without
// -fuzz. Gated behind an env var: it regenerates testdata, it does not
// test. Run with JOURNAL_REGEN_CORPUS=1 after changing the format.
func TestRegenFuzzCorpus(t *testing.T) {
	if os.Getenv("JOURNAL_REGEN_CORPUS") == "" {
		t.Skip("set JOURNAL_REGEN_CORPUS=1 to rewrite testdata/fuzz/FuzzDecode")
	}
	seg := fuzzSeedSegment()
	flip := append([]byte(nil), seg...)
	flip[5] ^= 0x40
	over := binary.LittleEndian.AppendUint32(nil, maxFrame+1)
	over = binary.LittleEndian.AppendUint32(over, 0xDEAD)
	over = append(over, []byte("payload that is not really there")...)
	lie := []byte{kindCheckpoint}
	lie = binary.LittleEndian.AppendUint32(lie, 0)
	for i := 0; i < 5; i++ {
		lie = binary.LittleEndian.AppendUint64(lie, 1)
	}
	lie = binary.LittleEndian.AppendUint32(lie, 1<<30)
	unstamped, err := os.ReadFile(filepath.Join("testdata", "unstamped-wal-00000000.log"))
	if err != nil {
		t.Fatal(err)
	}
	corpus := map[string][]byte{
		"valid_segment":     seg,
		"unstamped_segment": unstamped,
		"truncated_tail":    seg[:len(seg)-7],
		"torn_header":       seg[:frameHeader-3],
		"flipped_crc":       flip,
		"oversized_frame":   over,
		"lying_count":       appendFrame(nil, lie),
	}
	dir := filepath.Join("testdata", "fuzz", "FuzzDecode")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	for name, data := range corpus {
		body := fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", data)
		if err := os.WriteFile(filepath.Join(dir, name), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}
