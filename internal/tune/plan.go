// Package tune is the offline autotuner (DESIGN.md §17): it sweeps the
// tunable-knob space, persists the winning plan per (platform, collective,
// size-class) cell, and replays every pinned cell as a no-regression gate.
//
// A Plan is a complete knob assignment, so two plans always compare knob
// for knob and a plan file is self-contained. Every knob is applied when
// the communicator is constructed; a live communicator is never retuned.
package tune

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"sort"

	"xhc/internal/coll"
	"xhc/internal/core"
	"xhc/internal/env"
	"xhc/internal/hier"
	"xhc/internal/topo"
)

// Plan is one complete assignment of the simulated backend's tunable
// knobs. JSON field names are the plan-file wire format; Decode rejects
// anything it does not recognize.
type Plan struct {
	// Name identifies the plan in reports and tie-breaks selection; it
	// must be non-empty and free of the separators cell keys use.
	Name string `json:"name"`
	// Sensitivity is the hierarchy specification in the paper's
	// "numa+socket" notation ("flat" or empty: single level).
	Sensitivity string `json:"sensitivity"`
	// CICOThreshold routes messages <= this through the copy-in-copy-out
	// path.
	CICOThreshold int `json:"cico_threshold"`
	// CICOBytes sizes each rank's shared CICO buffer.
	CICOBytes int `json:"cico_bytes"`
	// ChunkBytes is the pipelining granule per hierarchy level (last entry
	// covers deeper levels).
	ChunkBytes []int `json:"chunk_bytes"`
}

// DefaultPlan returns the paper defaults the simulated backend boots with:
// the baseline every sweep measures against and the plan name Select
// expects to find among the samples.
func DefaultPlan() Plan {
	return Plan{
		Name:          "default",
		Sensitivity:   "numa+socket",
		CICOThreshold: 1 << 10,
		CICOBytes:     16 << 10,
		ChunkBytes:    []int{16 << 10},
	}
}

// Validate rejects plans no communicator could faithfully run.
func (p Plan) Validate() error {
	if p.Name == "" {
		return fmt.Errorf("tune: plan with empty name")
	}
	for _, r := range p.Name {
		if r == '/' || r == ',' || r == ' ' {
			return fmt.Errorf("tune: plan name %q contains separator %q", p.Name, r)
		}
	}
	if _, err := hier.ParseSensitivity(p.Sensitivity); err != nil {
		return fmt.Errorf("tune: plan %s: %w", p.Name, err)
	}
	if p.CICOThreshold < 0 {
		return fmt.Errorf("tune: plan %s: negative CICO threshold %d", p.Name, p.CICOThreshold)
	}
	if p.CICOBytes < 2*p.CICOThreshold {
		return fmt.Errorf("tune: plan %s: CICO buffer %d cannot double-buffer threshold %d payloads",
			p.Name, p.CICOBytes, p.CICOThreshold)
	}
	if len(p.ChunkBytes) == 0 {
		return fmt.Errorf("tune: plan %s: no chunk sizes", p.Name)
	}
	for _, c := range p.ChunkBytes {
		if c <= 0 {
			return fmt.Errorf("tune: plan %s: non-positive chunk size %d", p.Name, c)
		}
	}
	return nil
}

// CoreConfig maps the plan onto a simulated-backend configuration.
func (p Plan) CoreConfig() (core.Config, error) {
	sens, err := hier.ParseSensitivity(p.Sensitivity)
	if err != nil {
		return core.Config{}, err
	}
	cfg := core.DefaultConfig()
	cfg.Sensitivity = sens
	cfg.CICOThreshold = p.CICOThreshold
	cfg.CICOBytes = p.CICOBytes
	cfg.ChunkBytes = append([]int(nil), p.ChunkBytes...)
	return cfg, nil
}

// Builder wraps the plan as a coll registry builder, so osu benches and
// xhcbench's -tuned mode measure a communicator constructed from it.
func (p Plan) Builder() coll.Builder {
	return func(w *env.World) (coll.Component, error) {
		cfg, err := p.CoreConfig()
		if err != nil {
			return nil, err
		}
		return core.New(w, cfg)
	}
}

// key is a canonical deterministic rendering of the whole plan, used as
// the final selection tie-break so Select stays total even between plans
// that share a name.
func (p Plan) key() string {
	return fmt.Sprintf("%s|%s|%d|%d|%v",
		p.Name, p.Sensitivity, p.CICOThreshold, p.CICOBytes, p.ChunkBytes)
}

// Size classes: the tuner picks one plan per class, not per exact byte
// size, so a plan file generalizes to the whole sweep range.
const (
	ClassSmall  = "small"  // <= 1 KiB: CICO territory
	ClassMedium = "medium" // <= 64 KiB: single-chunk XPMEM
	ClassLarge  = "large"  // beyond: pipelined XPMEM
)

// SizeClassOf buckets a payload size.
func SizeClassOf(bytes int) string {
	switch {
	case bytes <= 1<<10:
		return ClassSmall
	case bytes <= 64<<10:
		return ClassMedium
	default:
		return ClassLarge
	}
}

// Collectives the tuner understands (the osu bench surface).
var knownCollectives = map[string]bool{
	"bcast": true, "allreduce": true, "barrier": true,
	"reduce": true, "allgather": true, "scatter": true,
}

// Cell names one tuning domain: a collective and size class on a platform.
type Cell struct {
	Platform   string `json:"platform"`
	Collective string `json:"collective"`
	SizeClass  string `json:"size_class"`
}

// Key renders the cell's stable identity.
func (c Cell) Key() string { return c.Platform + "/" + c.Collective + "/" + c.SizeClass }

// CellPlan is one row of a plan file: the winning plan for a cell plus the
// measurement it won on (Size is the class's representative payload).
type CellPlan struct {
	Cell
	Size       int     `json:"size"`
	Plan       Plan    `json:"plan"`
	BaselineUS float64 `json:"baseline_us"`
	TunedUS    float64 `json:"tuned_us"`
}

// FileVersion is the plan-file format version Decode accepts.
const FileVersion = 2

// File is a persisted tuning plan: the winning plan per pinned cell of one
// platform.
type File struct {
	Version  int        `json:"version"`
	Platform string     `json:"platform"`
	Cells    []CellPlan `json:"cells"`
}

// Validate enforces the plan-file invariants: a bad file is an error,
// never a silent fallback to defaults.
func (f File) Validate() error {
	if f.Version != FileVersion {
		return fmt.Errorf("tune: plan file version %d (this build reads version %d)", f.Version, FileVersion)
	}
	if topo.ByName(f.Platform) == nil {
		return fmt.Errorf("tune: plan file for unknown platform %q", f.Platform)
	}
	seen := make(map[string]bool, len(f.Cells))
	for i, c := range f.Cells {
		if c.Platform != f.Platform {
			return fmt.Errorf("tune: cell %d platform %q does not match file platform %q", i, c.Platform, f.Platform)
		}
		if !knownCollectives[c.Collective] {
			return fmt.Errorf("tune: cell %d: unknown collective %q", i, c.Collective)
		}
		if c.Size < 0 {
			return fmt.Errorf("tune: cell %d: negative size %d", i, c.Size)
		}
		if got := SizeClassOf(c.Size); got != c.SizeClass {
			return fmt.Errorf("tune: cell %d: size %d is class %q, labeled %q", i, c.Size, got, c.SizeClass)
		}
		if seen[c.Key()] {
			return fmt.Errorf("tune: duplicate cell %s", c.Key())
		}
		seen[c.Key()] = true
		if err := c.Plan.Validate(); err != nil {
			return fmt.Errorf("tune: cell %s: %w", c.Key(), err)
		}
	}
	return nil
}

// Encode renders the file deterministically: cells sorted by key, indented
// JSON, trailing newline. Encode(Decode(Encode(f))) is byte-identical.
func (f File) Encode() ([]byte, error) {
	if err := f.Validate(); err != nil {
		return nil, err
	}
	sort.Slice(f.Cells, func(i, j int) bool { return f.Cells[i].Key() < f.Cells[j].Key() })
	data, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(data, '\n'), nil
}

// Decode parses and validates a plan file. Unknown fields, trailing
// garbage, version skew and out-of-range knobs are all hard errors — a
// tuner that silently ignored a knob it cannot honor would report wins it
// never measured.
func Decode(data []byte) (File, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var f File
	if err := dec.Decode(&f); err != nil {
		return File{}, fmt.Errorf("tune: plan file: %w", err)
	}
	var trailing any
	if err := dec.Decode(&trailing); err == nil || err.Error() != "EOF" {
		return File{}, fmt.Errorf("tune: plan file: trailing data after document")
	}
	if err := f.Validate(); err != nil {
		return File{}, err
	}
	return f, nil
}

// Load reads and decodes a plan file from disk.
func Load(path string) (File, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return File{}, err
	}
	f, err := Decode(data)
	if err != nil {
		return File{}, fmt.Errorf("%s: %w", path, err)
	}
	return f, nil
}

// Lookup finds the plan covering (collective, size) via its size class.
func (f File) Lookup(collective string, size int) (CellPlan, bool) {
	class := SizeClassOf(size)
	for _, c := range f.Cells {
		if c.Collective == collective && c.SizeClass == class {
			return c, true
		}
	}
	return CellPlan{}, false
}
