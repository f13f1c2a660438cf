package machine

import "math"

// This file is the serving-side cost predictor: given only the numbers
// a deck states (problem, mesh dimensions, end time, caps), estimate
// how many seconds the run will occupy a worker before admitting it.
// The estimate must be computable without building the mesh — admission
// control runs on untrusted input, and a hostile nx=10^9 deck must cost
// a multiplication, not an allocation — so everything here is closed
// arithmetic over the roofline model above.
//
// Admission control needs ordering more than accuracy: a deck with more
// elements, or more steps, must never predict cheaper. Both axes are
// monotone by construction — per-step time is linear in NEl (every
// cpuTime term scales with n) and total time is linear in Steps.

// RunShape is the part of a parsed deck the predictor consumes.
//
// Threads is the worker-pool width the *server* grants the run, never
// a deck-declared value: the estimate gates admission of untrusted
// input, and letting a hostile deck inflate the platform's bandwidth
// with threads=10^6 would make the most expensive decks predict the
// cheapest. Ranks, by contrast, is deck-declared CPU the job consumes
// *outside* the granted pool, so it multiplies the charge.
type RunShape struct {
	Problem  string
	NX, NY   int
	TEnd     float64 // 0 = problem default
	MaxSteps int     // 0 = uncapped
	Threads  int     // worker threads the server grants the run
	Ranks    int     // deck-declared rank count (0/1 = serial)
}

// Estimate is a predicted run cost.
type Estimate struct {
	NEl         int     // elements the deck's mesh will have (saturated)
	Steps       int     // predicted step count (saturated)
	StepSeconds float64 // predicted seconds per step on one worker
	Seconds     float64 // Steps * StepSeconds * Ranks; always finite, > 0
}

// Saturation bounds: hostile shapes clamp here instead of overflowing.
// Both sit far past any admissible budget, so losing ordering above
// the bound is irrelevant — a saturated estimate is rejected on size —
// and the int conversions below stay well inside int64.
const (
	maxPredictEl    = 1e15 // elements
	maxPredictSteps = 1e12 // steps
)

// problemTEnd mirrors the per-problem default end times the hydro setup
// applies when a deck leaves tend unset.
func problemTEnd(problem string) float64 {
	switch problem {
	case "sod":
		return 0.25
	case "noh", "nohdisc", "saltzmann":
		return 0.6
	case "sedov":
		return 1.0
	case "waterair":
		return 0.08
	default:
		return 0.25
	}
}

// stepRate is the predicted steps per unit simulated time per cell of
// linear resolution — a CFL surrogate: dt scales with the cell size
// h ~ 1/max(nx,ny) divided by a per-problem signal-speed scale.
func stepRate(problem string) float64 {
	switch problem {
	case "noh", "nohdisc":
		return 8
	case "sedov":
		return 12
	case "waterair":
		return 60
	default: // sod, saltzmann and unknowns: near-unit sound speed
		return 4
	}
}

// servingHost is the platform model of one bleaf-served worker with the
// given thread count: a generic server core at 2 GHz with ~10 GB/s of
// memory bandwidth per core, run flat (every thread busy). Absolute
// seconds are indicative; ordering between decks is what admission
// control consumes.
func servingHost(threads int) Platform {
	// Clamp to a physical host: callers pass the server-granted pool
	// width, but a stray deck-declared value must not buy unbounded
	// modelled bandwidth.
	if threads < 1 {
		threads = 1
	}
	if threads > 1024 {
		threads = 1024
	}
	return Platform{
		Name: "serving-host", Exec: FlatMPI,
		Sockets: 1, CoresPerSocket: threads,
		GHz: 2.0, OpsPerCycle: 1.0,
		NodeBW: 10 * float64(threads), CoreBW: 10,
	}
}

// PredictRun estimates the cost of running a deck of the given shape on
// a serving-host worker. Steps grow with TEnd and linear resolution
// (CFL), capped by MaxSteps; per-step seconds are the roofline over the
// full kernel inventory at the deck's element count, multiplied by the
// rank count (each rank occupies its own CPU share for the whole run).
// The result is strictly monotone in NX*NY and in the predicted step
// count up to the saturation bounds, and always finite and positive:
// all sizing arithmetic runs in float64 with explicit clamps, so
// hostile shapes (nx=10^10, tend=1e300, NaN) saturate instead of
// overflowing int conversions into a near-zero or negative estimate.
func PredictRun(sh RunShape) Estimate {
	nx, ny := sh.NX, sh.NY
	if nx < 1 {
		nx = 1
	}
	if ny < 1 {
		ny = 1
	}
	nelF := float64(nx) * float64(ny)
	if nelF > maxPredictEl {
		nelF = maxPredictEl
	}

	ranks := sh.Ranks
	if ranks < 1 {
		ranks = 1
	}

	tEnd := sh.TEnd
	if math.IsNaN(tEnd) || tEnd <= 0 {
		tEnd = problemTEnd(sh.Problem)
	}
	maxDim := nx
	if ny > maxDim {
		maxDim = ny
	}
	stepsF := math.Ceil(tEnd * stepRate(sh.Problem) * float64(maxDim))
	if !(stepsF >= 1) { // also catches NaN
		stepsF = 1
	}
	if stepsF > maxPredictSteps {
		stepsF = maxPredictSteps
	}
	if sh.MaxSteps > 0 && stepsF > float64(sh.MaxSteps) {
		stepsF = float64(sh.MaxSteps)
	}

	host := servingHost(sh.Threads)
	perStep := host.OverallOf(Kernels, Workload{NEl: int(nelF), Steps: 1})
	secs := perStep * stepsF * float64(ranks)
	if math.IsInf(secs, 1) {
		secs = math.MaxFloat64
	}
	if !(secs > 0) { // NaN or non-positive: never admit for free
		secs = math.MaxFloat64
	}
	return Estimate{
		NEl:         int(nelF),
		Steps:       int(stepsF),
		StepSeconds: perStep,
		Seconds:     secs,
	}
}
