package serve

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"testing"

	"repro/internal/channel"
	"repro/internal/constellation"
	"repro/internal/rng"
)

// footprintConfig is one shard serving the bench's 4×2 16-QAM frame
// shape (or na×nc), with room for every group the measurement makes
// resident.
func footprintConfig(na, nc, groups int) Config {
	return Config{
		Cons:       constellation.QAM16,
		NA:         na,
		NC:         nc,
		NumSymbols: 8,
		SNRdB:      25,
		Seed:       2014,
		Shards:     1,
		MaxGroups:  groups + footprintWarm,
	}
}

// footprintWarm groups are served before the baseline is read, so the
// shard's processor and detector scratch are sized and not charged to
// the measured groups.
const footprintWarm = 8

// groupFootprint serves one frame to each of groups new groups on one
// shard and returns the live heap bytes and heap objects they added,
// per group, each read after a full collection.
func groupFootprint(tb testing.TB, na, nc, groups int) (bytes, objects float64) {
	tb.Helper()
	s, err := New(footprintConfig(na, nc, groups))
	if err != nil {
		tb.Fatal(err)
	}
	defer s.Close()
	ctx := context.Background()
	for g := 0; g < footprintWarm; g++ {
		if _, err := s.Process(ctx, uint64(g)); err != nil {
			tb.Fatal(err)
		}
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for g := footprintWarm; g < footprintWarm+groups; g++ {
		if _, err := s.Process(ctx, uint64(g)); err != nil {
			tb.Fatal(err)
		}
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(s)
	n := float64(groups)
	return (float64(after.HeapAlloc) - float64(before.HeapAlloc)) / n,
		(float64(after.HeapObjects) - float64(before.HeapObjects)) / n
}

// TestGroupFootprint holds the residency model to the measured heap:
// for the 4×2 and 4×4 shapes, the live bytes a resident group adds
// stay at or below groupBytes, which defaultMaxGroups sizes the cap
// against, in at most 16 heap objects; and for every shape from 4×2
// to 8×8, the default cap's modelled groups fit groupBudgetBytes.
func TestGroupFootprint(t *testing.T) {
	const maxObjects = 16
	for _, sh := range [][2]int{{4, 2}, {4, 4}} {
		na, nc := sh[0], sh[1]
		bytes, objects := groupFootprint(t, na, nc, 256)
		model := groupBytes(na, nc)
		t.Logf("%d×%d: %.0f bytes and %.1f objects per group; model %d bytes, default cap %d groups",
			na, nc, bytes, objects, model, defaultMaxGroups(na, nc))
		if bytes > float64(model) {
			t.Errorf("%d×%d: %.0f live bytes per group, above the %d-byte model", na, nc, bytes, model)
		}
		if objects > maxObjects {
			t.Errorf("%d×%d: %.1f heap objects per group, want at most %d", na, nc, objects, maxObjects)
		}
	}
	// The budget bounds the default cap for every shape, large ones
	// included; the 4×2 and 4×4 caps are the ones the service runs at.
	for na := 4; na <= 8; na += 2 {
		for nc := 2; nc <= na; nc += 2 {
			if capBytes := defaultMaxGroups(na, nc) * groupBytes(na, nc); capBytes > groupBudgetBytes {
				t.Errorf("%d×%d: default cap holds %d modelled bytes, above the %d-byte budget", na, nc, capBytes, groupBudgetBytes)
			}
		}
	}
	if c42, c44 := defaultMaxGroups(4, 2), defaultMaxGroups(4, 4); c42 != 1331 || c44 != 789 {
		t.Errorf("default caps 4×2 %d, 4×4 %d; want 1331 and 789", c42, c44)
	}
}

// BenchmarkGroupFootprint reports the live heap bytes and heap objects
// one resident group adds, for the 4×2 and 4×4 shapes, over 256 groups
// per iteration.
func BenchmarkGroupFootprint(b *testing.B) {
	for _, sh := range [][2]int{{4, 2}, {4, 4}} {
		b.Run(fmt.Sprintf("%dx%d", sh[0], sh[1]), func(b *testing.B) {
			var bytes, objects float64
			for i := 0; i < b.N; i++ {
				by, ob := groupFootprint(b, sh[0], sh[1], 256)
				bytes += by
				objects += ob
			}
			b.ReportMetric(bytes/float64(b.N), "bytes/group")
			b.ReportMetric(objects/float64(b.N), "objects/group")
		})
	}
}

// TestGroupChannelsMatchRayleigh: drawing a group's channels into one
// backing array makes the same draws, in the same order, as drawing
// each subcarrier's matrix with channel.Rayleigh, bit for bit.
func TestGroupChannelsMatchRayleigh(t *testing.T) {
	cfg := footprintConfig(4, 2, 1)
	for _, id := range []uint64{0, 9, 1<<43 - 1} {
		got := groupChannels(cfg, id)
		src := rng.Substream(cfg.Seed+1, int64(id))
		for i, h := range got {
			want := channel.Rayleigh(src, cfg.NA, cfg.NC)
			if h.Rows != want.Rows || h.Cols != want.Cols {
				t.Fatalf("group %d subcarrier %d: %d×%d, want %d×%d", id, i, h.Rows, h.Cols, want.Rows, want.Cols)
			}
			for k, v := range want.Data {
				if math.Float64bits(real(v)) != math.Float64bits(real(h.Data[k])) ||
					math.Float64bits(imag(v)) != math.Float64bits(imag(h.Data[k])) {
					t.Fatalf("group %d subcarrier %d entry %d: %v, want %v", id, i, k, h.Data[k], v)
				}
			}
		}
	}
}
