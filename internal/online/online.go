// Package online defines the live phase label: the event the streaming
// engine (internal/stream) hands its OnLabel callback for every interval as
// it arrives — the paper's goal of "in-production observability of the
// performance of applications, at the phase level".
package online

// Event describes one labelled interval.
type Event struct {
	// Interval is the observation index (0-based arrival order).
	Interval int
	// Phase is the assigned phase ID.
	Phase int
	// NewPhase reports whether this interval founded the phase.
	NewPhase bool
	// Transition reports whether the phase differs from the previous
	// interval's.
	Transition bool
	// Distance is the distance to the assigned phase's centroid; 0 when
	// the interval founded the phase.
	Distance float64
	// LowConfidence marks an interval synthesized by gap repair
	// (Profile.Repaired): its label is advisory — a repaired interval
	// founds a phase only when none exists, so fabricated data cannot
	// reshape the phase model.
	LowConfidence bool
}
