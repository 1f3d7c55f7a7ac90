package core

import (
	"fmt"
	"time"
)

// AdmissionMode selects the overload controller consulted at every arrival.
// The paper's model admits everything; admission control is the robustness
// extension that lets the engine shed load past saturation instead of
// letting the live set grow without bound.
type AdmissionMode string

const (
	// AdmitAll (the zero value) disables admission control.
	AdmitAll AdmissionMode = ""
	// RejectNewest turns an arrival away when the live set already holds
	// MaxLive transactions — the simplest load shedder: the backlog is
	// served, newcomers are sacrificed.
	RejectNewest AdmissionMode = "reject-newest"
	// RejectInfeasible turns an arrival away when its deadline is
	// infeasible given the current backlog: the static CPU work of every
	// live transaction plus the arrival's own resource time, divided
	// across the CPUs, would finish past the arrival's deadline. This is
	// the firm-deadline analogue of the paper's drop rule — a transaction
	// that cannot meet its deadline contributes nothing but interference.
	RejectInfeasible AdmissionMode = "reject-infeasible"
)

// AdmissionConfig configures the engine's overload controller
// (Config.Admission). The zero value admits everything.
type AdmissionConfig struct {
	// Mode selects the rejection rule.
	Mode AdmissionMode
	// MaxLive is the live-set bound. Required (> 0) for RejectNewest;
	// optional for RejectInfeasible, where > 0 adds a hard cap on top of
	// the feasibility test.
	MaxLive int
}

// Validate reports the first problem with the admission configuration.
func (a AdmissionConfig) Validate() error {
	switch a.Mode {
	case AdmitAll, RejectInfeasible:
	case RejectNewest:
		if a.MaxLive <= 0 {
			return fmt.Errorf("core: admission mode %q requires MaxLive > 0", a.Mode)
		}
	default:
		return fmt.Errorf("core: unknown admission mode %q", a.Mode)
	}
	if a.MaxLive < 0 {
		return fmt.Errorf("core: Admission.MaxLive %d < 0", a.MaxLive)
	}
	return nil
}

// rejects is the admission decision for an arriving transaction; callers
// guard on a non-AdmitAll mode. The feasibility estimate is deliberately a
// heuristic: it sums the static CPU demand of the backlog (ignoring
// conflicts and restarts, which only make matters worse) plus the
// arrival's full resource time, so a rejection is near-certainly a
// transaction that would have missed.
func (e *Engine) rejects(t *Txn) bool {
	a := e.cfg.Admission
	switch a.Mode {
	case RejectNewest:
		return e.live.n >= a.MaxLive
	case RejectInfeasible:
		if a.MaxLive > 0 && e.live.n >= a.MaxLive {
			return true
		}
		backlog := t.Spec.ResourceTime(e.cfg.Workload.DiskAccessTime)
		for v := e.live.head; v != nil; v = v.liveNext {
			backlog += v.remainingStatic()
		}
		eta := time.Duration(e.sim.Now()) + backlog/time.Duration(e.cfg.NumCPUs)
		return eta > t.Spec.Deadline
	}
	return false
}
