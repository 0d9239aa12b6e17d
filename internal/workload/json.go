package workload

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"

	"repro/internal/sched"
)

// JSON import/export of workload specs, so users can define custom
// benchmarks in files instead of recompiling the library. The wire format
// mirrors Spec field-for-field with lock/barrier kinds as strings.

// specJSON is the serialised form of a Spec.
type specJSON struct {
	Name    string `json:"name"`
	Suite   string `json:"suite,omitempty"`
	Problem string `json:"problem,omitempty"`
	Desc    string `json:"desc,omitempty"`

	Mix struct {
		Load   float64 `json:"load"`
		Store  float64 `json:"store"`
		Branch float64 `json:"branch"`
		Int    float64 `json:"int"`
		IntMul float64 `json:"intmul,omitempty"`
		FPVec  float64 `json:"fpvec,omitempty"`
		FPDiv  float64 `json:"fpdiv,omitempty"`
	} `json:"mix"`

	Chains    int     `json:"chains"`
	ChainFrac float64 `json:"chainFrac"`
	CrossDep  float64 `json:"crossDep,omitempty"`

	WorkingSetKB  int     `json:"workingSetKB"`
	SharedSetKB   int     `json:"sharedSetKB,omitempty"`
	SharedFrac    float64 `json:"sharedFrac,omitempty"`
	StrideBytes   int     `json:"strideBytes,omitempty"`
	ColdFrac      float64 `json:"coldFrac,omitempty"`
	BranchEntropy float64 `json:"branchEntropy,omitempty"`

	TotalWork int64 `json:"totalWork"`
	IterLen   int   `json:"iterLen"`

	LockEvery int    `json:"lockEvery,omitempty"`
	CritLen   int    `json:"critLen,omitempty"`
	LockKind  string `json:"lockKind,omitempty"` // "spin" | "blocking"

	BarrierEvery int    `json:"barrierEvery,omitempty"`
	BarrierKind  string `json:"barrierKind,omitempty"`

	SerialEvery int `json:"serialEvery,omitempty"`
	SerialLen   int `json:"serialLen,omitempty"`

	SleepEvery  int   `json:"sleepEvery,omitempty"`
	SleepCycles int64 `json:"sleepCycles,omitempty"`
}

func kindToString(k sched.LockKind) string {
	if k == sched.BlockingLock {
		return "blocking"
	}
	return "spin"
}

func kindFromString(s string) (sched.LockKind, error) {
	switch s {
	case "", "spin":
		return sched.SpinLock, nil
	case "blocking":
		return sched.BlockingLock, nil
	default:
		return 0, fmt.Errorf("workload: unknown lock kind %q (want \"spin\" or \"blocking\")", s)
	}
}

// MarshalJSON implements json.Marshaler for Spec.
func (s *Spec) MarshalJSON() ([]byte, error) {
	var j specJSON
	j.Name, j.Suite, j.Problem, j.Desc = s.Name, s.Suite, s.Problem, s.Desc
	j.Mix.Load, j.Mix.Store, j.Mix.Branch = s.Mix.Load, s.Mix.Store, s.Mix.Branch
	j.Mix.Int, j.Mix.IntMul, j.Mix.FPVec, j.Mix.FPDiv = s.Mix.Int, s.Mix.IntMul, s.Mix.FPVec, s.Mix.FPDiv
	j.Chains, j.ChainFrac, j.CrossDep = s.Chains, s.ChainFrac, s.CrossDep
	j.WorkingSetKB, j.SharedSetKB, j.SharedFrac = s.WorkingSetKB, s.SharedSetKB, s.SharedFrac
	j.StrideBytes, j.ColdFrac, j.BranchEntropy = s.StrideBytes, s.ColdFrac, s.BranchEntropy
	j.TotalWork, j.IterLen = s.TotalWork, s.IterLen
	j.LockEvery, j.CritLen = s.LockEvery, s.CritLen
	if s.LockEvery > 0 {
		j.LockKind = kindToString(s.LockKind)
	}
	j.BarrierEvery = s.BarrierEvery
	if s.BarrierEvery > 0 || s.SerialEvery > 0 {
		j.BarrierKind = kindToString(s.BarrierKind)
	}
	j.SerialEvery, j.SerialLen = s.SerialEvery, s.SerialLen
	j.SleepEvery, j.SleepCycles = s.SleepEvery, s.SleepCycles
	return json.Marshal(&j)
}

// UnmarshalJSON implements json.Unmarshaler for Spec; the result is
// validated. An unknown field, at the top level or inside "mix", is an
// error, so a misspelled knob fails loudly instead of leaving its default.
func (s *Spec) UnmarshalJSON(data []byte) error {
	var j specJSON
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&j); err != nil {
		return fmt.Errorf("workload: %w", err)
	}
	lockKind, err := kindFromString(j.LockKind)
	if err != nil {
		return err
	}
	barrierKind, err := kindFromString(j.BarrierKind)
	if err != nil {
		return err
	}
	*s = Spec{
		Name: j.Name, Suite: j.Suite, Problem: j.Problem, Desc: j.Desc,
		Mix: Mix{
			Load: j.Mix.Load, Store: j.Mix.Store, Branch: j.Mix.Branch,
			Int: j.Mix.Int, IntMul: j.Mix.IntMul, FPVec: j.Mix.FPVec, FPDiv: j.Mix.FPDiv,
		},
		Chains: j.Chains, ChainFrac: j.ChainFrac, CrossDep: j.CrossDep,
		WorkingSetKB: j.WorkingSetKB, SharedSetKB: j.SharedSetKB, SharedFrac: j.SharedFrac,
		StrideBytes: j.StrideBytes, ColdFrac: j.ColdFrac, BranchEntropy: j.BranchEntropy,
		TotalWork: j.TotalWork, IterLen: j.IterLen,
		LockEvery: j.LockEvery, CritLen: j.CritLen, LockKind: lockKind,
		BarrierEvery: j.BarrierEvery, BarrierKind: barrierKind,
		SerialEvery: j.SerialEvery, SerialLen: j.SerialLen,
		SleepEvery: j.SleepEvery, SleepCycles: j.SleepCycles,
	}
	return s.Validate()
}

// LoadSpec reads and validates a workload spec from a JSON stream.
func LoadSpec(r io.Reader) (*Spec, error) {
	var s Spec
	if err := json.NewDecoder(r).Decode(&s); err != nil {
		return nil, err
	}
	return &s, nil
}

// LoadSpecFile reads and validates a workload spec from a JSON file.
func LoadSpecFile(path string) (*Spec, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	s, err := LoadSpec(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return s, nil
}

// SaveSpecFile writes a spec as indented JSON.
func SaveSpecFile(s *Spec, path string) error {
	data, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
