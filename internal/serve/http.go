package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"bookleaf"
	"bookleaf/internal/config"
	"bookleaf/internal/obs"
)

// The wire layer: a stdlib ServeMux over the scheduler.
//
//	POST   /v1/jobs              submit a deck body; X-Priority header
//	GET    /v1/jobs/{id}         status, and the full result when done
//	GET    /v1/jobs/{id}/metrics merged obs snapshot (+ ?watch=1 NDJSON stream)
//	DELETE /v1/jobs/{id}         cancel
//	GET    /v1/status            scheduler stats
//
// Errors are a typed JSON body {"error":{"code":..., "message":...}}
// so clients can switch on the code without parsing prose.

// errorBody is the typed error envelope.
type errorBody struct {
	Error errorInfo `json:"error"`
}

type errorInfo struct {
	Code    string `json:"code"`
	Message string `json:"message"`
}

// Error codes on the wire.
const (
	CodeBadDeck      = "bad_deck"
	CodeBadPriority  = "bad_priority"
	CodeBadClient    = "bad_client"
	CodeDeckTooLarge = "deck_too_large"
	CodeNotFound     = "not_found"
	CodeOverloaded   = "overloaded"
	CodeOverQuota    = "client_over_quota"
	CodeClosed       = "shutting_down"
	// CodeResultUnavailable answers a done job whose stored result file
	// is missing or fails its integrity check: the status is known, the
	// fields are not, and no part of them is served.
	CodeResultUnavailable = "result_unavailable"
)

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.Encode(v)
}

func writeErr(w http.ResponseWriter, status int, code, msg string) {
	writeJSON(w, status, errorBody{Error: errorInfo{Code: code, Message: msg}})
}

// SubmitResponse acknowledges an admitted job.
type SubmitResponse struct {
	ID         string  `json:"id"`
	State      string  `json:"state"`
	Priority   int     `json:"priority"`
	EstSeconds float64 `json:"est_seconds"`
	EstSteps   int     `json:"est_steps"`
}

// JobResponse is the status document; Result is present once done.
type JobResponse struct {
	Status
	Result *ResultJSON `json:"result,omitempty"`
}

// ResultJSON is the deck-to-result payload. Field arrays are raw
// float64s: Go's encoder emits the shortest decimal that round-trips,
// so a decoded result compares bitwise against an in-process run.
type ResultJSON struct {
	Problem      string    `json:"problem"`
	NEl          int       `json:"nel"`
	NNd          int       `json:"nnd"`
	Steps        int       `json:"steps"`
	Time         float64   `json:"time"`
	E0           float64   `json:"e0"`
	EFinal       float64   `json:"efinal"`
	ExternalWork float64   `json:"external_work"`
	Mass0        float64   `json:"mass0"`
	MassFinal    float64   `json:"mass_final"`
	Rollbacks    int       `json:"rollbacks"`
	X            []float64 `json:"x"`
	Y            []float64 `json:"y"`
	Rho          []float64 `json:"rho"`
	P            []float64 `json:"p"`
	Ein          []float64 `json:"ein"`
	U            []float64 `json:"u"`
	V            []float64 `json:"v"`
}

// MetricsResponse carries progress plus the merged obs snapshot.
type MetricsResponse struct {
	ID          string        `json:"id"`
	State       string        `json:"state"`
	Step        int           `json:"step"`
	Time        float64       `json:"time"`
	TEnd        float64       `json:"tend"`
	Preemptions int           `json:"preemptions"`
	Metrics     *obs.Snapshot `json:"metrics,omitempty"`
}

func resultJSON(res *bookleaf.Result) *ResultJSON {
	return &ResultJSON{
		Problem: res.Problem, NEl: res.NEl, NNd: res.NNd,
		Steps: res.Steps, Time: res.Time,
		E0: res.E0, EFinal: res.EFinal, ExternalWork: res.ExternalWork,
		Mass0: res.Mass0, MassFinal: res.MassFinal,
		Rollbacks: res.Rollbacks,
		X:         res.X, Y: res.Y, Rho: res.Rho, P: res.P, Ein: res.Ein,
		U: res.U, V: res.V,
	}
}

// Handler returns the daemon's HTTP interface.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleGet)
	mux.HandleFunc("GET /v1/jobs/{id}/metrics", s.handleMetrics)
	mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleCancel)
	mux.HandleFunc("GET /v1/status", s.handleStats)
	return mux
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	priority := 0
	if p := r.Header.Get("X-Priority"); p != "" {
		v, err := strconv.Atoi(p)
		if err != nil {
			writeErr(w, http.StatusBadRequest, CodeBadPriority,
				fmt.Sprintf("X-Priority %q is not an integer", p))
			return
		}
		priority = v
	}
	j, err := s.Submit(r.Body, priority, r.Header.Get("X-Client"))
	if err != nil {
		var bad *BadDeckError
		var badc *BadClientError
		var over *OverloadedError
		var quota *QuotaError
		switch {
		case errors.Is(err, config.ErrTooLarge):
			writeErr(w, http.StatusRequestEntityTooLarge, CodeDeckTooLarge, err.Error())
		case errors.As(err, &bad):
			writeErr(w, http.StatusBadRequest, CodeBadDeck, bad.Reason)
		case errors.As(err, &badc):
			writeErr(w, http.StatusBadRequest, CodeBadClient, badc.Reason)
		case errors.As(err, &quota):
			// Same status as overloaded, distinct code: this client alone
			// is over its backlog quota — other clients still admit.
			w.Header().Set("Retry-After", strconv.Itoa(quota.RetryAfter))
			writeErr(w, http.StatusTooManyRequests, CodeOverQuota, quota.Error())
		case errors.As(err, &over):
			w.Header().Set("Retry-After", strconv.Itoa(over.RetryAfter))
			writeErr(w, http.StatusTooManyRequests, CodeOverloaded, over.Error())
		case errors.Is(err, ErrClosed):
			writeErr(w, http.StatusServiceUnavailable, CodeClosed, err.Error())
		default:
			writeErr(w, http.StatusBadRequest, CodeBadDeck, err.Error())
		}
		return
	}
	st := s.Status(j)
	writeJSON(w, http.StatusAccepted, SubmitResponse{
		ID: j.ID, State: st.State, Priority: j.Priority,
		EstSeconds: j.Est.Seconds, EstSteps: j.Est.Steps,
	})
}

func (s *Server) handleGet(w http.ResponseWriter, r *http.Request) {
	j, ok := s.Get(r.PathValue("id"))
	if !ok {
		writeErr(w, http.StatusNotFound, CodeNotFound, "no such job")
		return
	}
	resp := JobResponse{Status: s.Status(j)}
	var err error
	if resp.Result, err = s.result(j); err != nil {
		if _, ok := s.Get(j.ID); !ok {
			// Evicted while its file was being read.
			writeErr(w, http.StatusNotFound, CodeNotFound, "no such job")
			return
		}
		writeErr(w, http.StatusInternalServerError, CodeResultUnavailable,
			"job "+j.ID+" is done but its stored result cannot be read")
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	j, ok := s.Cancel(r.PathValue("id"))
	if !ok {
		writeErr(w, http.StatusNotFound, CodeNotFound, "no such job")
		return
	}
	writeJSON(w, http.StatusAccepted, s.Status(j))
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.Stats())
}

func (s *Server) metricsResponse(j *Job) MetricsResponse {
	st := s.Status(j)
	return MetricsResponse{
		ID: j.ID, State: st.State,
		Step: st.Step, Time: st.Time, TEnd: st.TEnd,
		Preemptions: st.Preemptions,
		Metrics:     s.Metrics(j),
	}
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	j, ok := s.Get(r.PathValue("id"))
	if !ok {
		writeErr(w, http.StatusNotFound, CodeNotFound, "no such job")
		return
	}
	if r.URL.Query().Get("watch") == "" {
		writeJSON(w, http.StatusOK, s.metricsResponse(j))
		return
	}
	// Streaming mode: one NDJSON document per interval until the job
	// reaches a terminal state (a final document included) or the
	// client goes away.
	// The interval clamps to [10ms, 60s]. The upper bound matters for
	// more than politeness: interval_ms is attacker-controlled, and
	// time.Duration(v) * time.Millisecond overflows int64 for huge v —
	// a non-positive product would panic time.NewTicker.
	interval := 250 * time.Millisecond
	if ms := r.URL.Query().Get("interval_ms"); ms != "" {
		if v, err := strconv.Atoi(ms); err == nil && v >= 10 {
			if v > 60_000 {
				v = 60_000
			}
			interval = time.Duration(v) * time.Millisecond
		}
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	tick := time.NewTicker(interval)
	defer tick.Stop()
	for {
		// Terminal-state check comes before the encode so the final
		// document is emitted exactly once — a job that is already done
		// at connect time (or finishes between ticks) gets one closing
		// record, not a mid-loop copy plus a terminal copy.
		select {
		case <-j.Done():
			enc.Encode(s.metricsResponse(j))
			if flusher != nil {
				flusher.Flush()
			}
			return
		default:
		}
		if err := enc.Encode(s.metricsResponse(j)); err != nil {
			return
		}
		if flusher != nil {
			flusher.Flush()
		}
		select {
		case <-j.Done():
			// Loop around: the top select emits the final document.
		case <-r.Context().Done():
			return
		case <-tick.C:
		}
	}
}
