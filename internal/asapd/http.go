package asapd

import (
	"encoding/json"
	"errors"
	"io"
	"net/http"
)

// maxJobBody bounds a job submission body (a grid spec is small; a
// multi-megabyte body is a client bug or abuse, not a bigger grid).
const maxJobBody = 1 << 20

// retryAfterSeconds is the hint sent with 429/503 responses.
const retryAfterSeconds = "1"

// Handler returns the service's HTTP API:
//
//	POST /v1/jobs      submit a JobSpec  -> 202 JobStatus | 400 | 429 | 503
//	GET  /v1/jobs      list all jobs     -> 200 []JobStatus
//	GET  /v1/jobs/{id} one job's status  -> 200 JobStatus | 404
//	GET  /metrics      service counters  -> 200 Metrics (JSON; ?format=prom
//	                   selects Prometheus text exposition)
//	GET  /healthz      liveness          -> 200 | 503 (draining)
//
// Every response body is JSON; errors use {"error": "..."}.
func (s *Service) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	mux.HandleFunc("GET /v1/jobs", s.handleList)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleJob)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	return mux
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v) //nolint:errcheck // headers are sent; nothing left to do
}

func writeError(w http.ResponseWriter, code int, msg string) {
	writeJSON(w, code, map[string]string{"error": msg})
}

// decodeJobSpec decodes a submitted body, refusing fields JobSpec lacks.
func decodeJobSpec(r io.Reader) (JobSpec, error) {
	var spec JobSpec
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	err := dec.Decode(&spec)
	return spec, err
}

func (s *Service) handleSubmit(w http.ResponseWriter, r *http.Request) {
	spec, err := decodeJobSpec(http.MaxBytesReader(w, r.Body, maxJobBody))
	if err != nil {
		writeError(w, http.StatusBadRequest, "bad job spec: "+err.Error())
		return
	}
	j, err := s.Submit(spec)
	switch {
	case errors.Is(err, ErrBusy):
		w.Header().Set("Retry-After", retryAfterSeconds)
		writeError(w, http.StatusTooManyRequests, "queue full, retry later")
		return
	case errors.Is(err, ErrDraining):
		w.Header().Set("Retry-After", retryAfterSeconds)
		writeError(w, http.StatusServiceUnavailable, "service draining")
		return
	case err != nil:
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	st := j.Status()
	w.Header().Set("Location", "/v1/jobs/"+st.ID)
	writeJSON(w, http.StatusAccepted, st)
}

func (s *Service) handleList(w http.ResponseWriter, _ *http.Request) {
	jobs := s.Jobs()
	out := make([]JobStatus, 0, len(jobs))
	for _, j := range jobs {
		out = append(out, j.Status())
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *Service) handleJob(w http.ResponseWriter, r *http.Request) {
	j, ok := s.Job(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "no such job")
		return
	}
	writeJSON(w, http.StatusOK, j.Status())
}

func (s *Service) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if r.URL.Query().Get("format") == "prom" {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		w.WriteHeader(http.StatusOK)
		_ = s.WriteProm(w) //nolint:errcheck // headers are sent; nothing left to do
		return
	}
	writeJSON(w, http.StatusOK, s.MetricsSnapshot())
}

func (s *Service) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	if s.Draining() {
		writeError(w, http.StatusServiceUnavailable, "draining")
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}
