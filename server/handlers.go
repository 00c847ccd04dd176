package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"time"

	"distcover"
	"distcover/server/api"
)

func (s *Server) routes() {
	s.mux.HandleFunc("POST /v1/solve", s.handleSolve)
	s.mux.HandleFunc("POST /v1/solve/batch", s.handleBatch)
	s.mux.HandleFunc("GET /v1/jobs/{id}", s.handleJob)
	s.mux.HandleFunc("POST /v1/sessions", s.handleSessionCreate)
	s.mux.HandleFunc("GET /v1/sessions", s.handleSessionList)
	s.mux.HandleFunc("GET /v1/sessions/{id}", s.handleSessionGet)
	s.mux.HandleFunc("POST /v1/sessions/{id}/update", s.handleSessionUpdate)
	s.mux.HandleFunc("DELETE /v1/sessions/{id}", s.handleSessionDelete)
	s.mux.HandleFunc("GET /v1/ring", s.handleRing)
	s.mux.HandleFunc("GET /healthz", s.handleHealth)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, api.Error{Error: fmt.Sprintf(format, args...)})
}

// decode reads the request body, bounded by MaxBodyBytes, and decodes its
// first JSON value into v. It returns the body exactly as received — what
// a ring forward relays — and false after writing an error response.
func (s *Server) decode(w http.ResponseWriter, r *http.Request, v any) ([]byte, bool) {
	body, ok := s.readBody(w, r)
	if !ok {
		return nil, false
	}
	if err := decodeJSON(body, v); err != nil {
		rejectBody(w, err)
		return nil, false
	}
	return body, true
}

// readBody reads the request body, bounded by MaxBodyBytes, and returns
// false after writing an error response.
func (s *Server) readBody(w http.ResponseWriter, r *http.Request) ([]byte, bool) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes))
	if err != nil {
		rejectBody(w, err)
		return nil, false
	}
	return body, true
}

// rejectBody writes the response for a body that could not be read or
// decoded: 413 past MaxBodyBytes, 400 otherwise.
func rejectBody(w http.ResponseWriter, err error) {
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) {
		writeError(w, http.StatusRequestEntityTooLarge, "body exceeds %d bytes", tooLarge.Limit)
	} else {
		writeError(w, http.StatusBadRequest, "invalid JSON: %v", err)
	}
}

// decodeJSON decodes the first JSON value of body into v with encoding/json.
func decodeJSON(body []byte, v any) error {
	return json.NewDecoder(bytes.NewReader(body)).Decode(v)
}

// admitSolve decodes a solve body and parses its problem, timing each
// stage into m (nil: untimed). api.DecodeSolveRequest's envelope scan hands
// the instance bytes to parseJob unvalidated, so when parseJob rejects, the
// body is decoded again with encoding/json and the problem parsed from
// that: every rejection is the one that path gives, down to its text — a
// malformed body is invalid JSON, not an instance parse error.
func admitSolve(body []byte, m *Metrics) (req api.SolveRequest, j *job, parseErr, decodeErr error) {
	t := time.Now()
	decodeErr = api.DecodeSolveRequest(body, &req)
	m.recordStage(stageDecode, time.Since(t))
	if decodeErr != nil {
		return req, nil, nil, decodeErr
	}
	if j, parseErr = parseJob(req, m); parseErr == nil {
		return req, j, nil, nil
	}
	req = api.SolveRequest{}
	if decodeErr = decodeJSON(body, &req); decodeErr != nil {
		return req, nil, nil, decodeErr
	}
	j, parseErr = parseJob(req, nil)
	return req, j, parseErr, nil
}

// admitSession is admitSolve for a session create: it decodes the body
// with api.DecodeSessionRequest and parses its instance, falling back to
// encoding/json when the parse fails.
func admitSession(body []byte) (req api.SessionRequest, inst *distcover.Instance, parseErr, decodeErr error) {
	if decodeErr = api.DecodeSessionRequest(body, &req); decodeErr != nil {
		return req, nil, nil, decodeErr
	}
	if inst, parseErr = parseSessionInstance(req); parseErr == nil {
		return req, inst, nil, nil
	}
	req = api.SessionRequest{}
	if decodeErr = decodeJSON(body, &req); decodeErr != nil {
		return req, nil, nil, decodeErr
	}
	inst, parseErr = parseSessionInstance(req)
	return req, inst, parseErr, nil
}

// parseSessionInstance parses the instance a session is created over.
func parseSessionInstance(req api.SessionRequest) (*distcover.Instance, error) {
	if len(req.Instance) == 0 {
		return nil, errors.New("request must set instance")
	}
	return distcover.ReadInstance(bytes.NewReader(req.Instance))
}

// handleSolve solves one instance. Synchronous by default: the handler
// submits the job and waits. With "async":true it returns 202 + a job id
// immediately. A full queue yields 429 in both modes.
//
// The instance is parsed and hashed exactly once per member: the job's
// content hash is both the ring routing key and the cache key, and a
// misrouted solve is forwarded with the body bytes it arrived with.
func (s *Server) handleSolve(w http.ResponseWriter, r *http.Request) {
	body, ok := s.readBody(w, r)
	if !ok {
		return
	}
	req, j, parseErr, err := admitSolve(body, s.metrics)
	if err != nil {
		rejectBody(w, err)
		return
	}
	if parseErr == nil {
		if owner := s.ringSolveOwner(r, req.Async, j.hash); owner != "" {
			// The owner parses the instance itself: drop this copy instead
			// of holding it across the round trip, and rebuild it only if
			// no forward gets through.
			key := j.hash
			j = nil
			if s.ringForwardSolve(w, r, owner, key, body) {
				return
			}
			j, parseErr = parseJob(req, nil)
		}
	}
	// The owner decides whether it can serve the engine; only a request
	// served here is checked against this server's configuration.
	if err := s.checkEngine(req.Options); err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	if parseErr != nil {
		writeError(w, http.StatusBadRequest, "%v", parseErr)
		return
	}
	if res := s.lookupCache(j); res != nil {
		if req.Async {
			// Complete the job up front so the poll endpoint works
			// uniformly whether or not the result was cached.
			j.complete(res, nil)
			s.jobs.add(j)
			writeJSON(w, http.StatusAccepted, api.JobAccepted{ID: j.id, Status: api.JobDone})
			return
		}
		s.writeSolveResult(w, res)
		return
	}

	if req.Async {
		s.jobs.add(j)
		if err := s.queue.tryEnqueue(j); err != nil {
			s.jobs.remove(j.id)
			s.rejectFull(w)
			return
		}
		s.metrics.recordSubmit()
		writeJSON(w, http.StatusAccepted, api.JobAccepted{ID: j.id, Status: api.JobQueued})
		return
	}

	if err := s.queue.tryEnqueue(j); err != nil {
		s.rejectFull(w)
		return
	}
	s.metrics.recordSubmit()
	select {
	case <-j.done:
	case <-r.Context().Done():
		// Client went away; the worker will still complete the job (and
		// populate the cache), there is just nobody to tell.
		return
	}
	st := j.snapshot()
	if st.Error != "" {
		writeError(w, http.StatusUnprocessableEntity, "solve failed: %s", st.Error)
		return
	}
	s.writeSolveResult(w, st.Result)
}

// writeSolveResult writes a solve's 200 response, timing it as the solve
// route's encode stage.
func (s *Server) writeSolveResult(w http.ResponseWriter, res *api.SolveResult) {
	t := time.Now()
	writeJSON(w, http.StatusOK, res)
	s.metrics.recordStage(stageEncode, time.Since(t))
}

// handleBatch solves many instances through the same queue and pool. Items
// stream through the bounded queue with blocking enqueue, so a batch larger
// than the queue still completes; only MaxBatch bounds the request itself.
func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	var req api.BatchRequest
	if _, ok := s.decode(w, r, &req); !ok {
		return
	}
	if len(req.Requests) == 0 {
		writeError(w, http.StatusBadRequest, "empty batch")
		return
	}
	if len(req.Requests) > s.cfg.MaxBatch {
		writeError(w, http.StatusRequestEntityTooLarge,
			"batch of %d exceeds limit %d", len(req.Requests), s.cfg.MaxBatch)
		return
	}
	s.metrics.recordBatch()

	items := make([]api.BatchItem, len(req.Requests))
	jobs := make([]*job, len(req.Requests))
	for i, sub := range req.Requests {
		j, err := s.buildJob(sub)
		if err != nil {
			items[i] = api.BatchItem{Error: err.Error()}
			continue
		}
		if res := s.lookupCache(j); res != nil {
			items[i] = api.BatchItem{Result: res}
			continue
		}
		if err := s.queue.enqueue(r.Context(), j); err != nil {
			items[i] = api.BatchItem{Error: "not scheduled: " + err.Error()}
			continue
		}
		s.metrics.recordSubmit()
		jobs[i] = j
	}
	for i, j := range jobs {
		if j == nil {
			continue
		}
		select {
		case <-j.done:
		case <-r.Context().Done():
			return
		}
		st := j.snapshot()
		if st.Error != "" {
			items[i] = api.BatchItem{Error: st.Error}
		} else {
			items[i] = api.BatchItem{Result: st.Result}
		}
	}
	writeJSON(w, http.StatusOK, api.BatchResponse{Results: items})
}

// handleSessionCreate opens an incremental session: the initial solve runs
// through the job queue and worker pool like any other solve (a full queue
// yields 429), then the session is registered for updates.
func (s *Server) handleSessionCreate(w http.ResponseWriter, r *http.Request) {
	body, ok := s.readBody(w, r)
	if !ok {
		return
	}
	req, inst, parseErr, err := admitSession(body)
	if err != nil {
		rejectBody(w, err)
		return
	}
	if parseErr != nil {
		writeError(w, http.StatusBadRequest, "%v", parseErr)
		return
	}
	if _, err := sessionLibOptions(req.Options, s.pool.cluster); err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	j := newSessionCreateJob(inst, req.Options)
	if err := s.queue.tryEnqueue(j); err != nil {
		s.rejectFull(w)
		return
	}
	s.metrics.recordSubmit()
	if !s.waitJob(j, r) {
		return
	}
	st := j.snapshot()
	if st.Error != "" {
		writeError(w, http.StatusUnprocessableEntity, "session solve failed: %s", st.Error)
		return
	}
	// With a ring, the id is rejection-sampled until this coordinator owns
	// it: session ownership becomes a pure function of the id, so every
	// member and ring-aware client can route to it with no directory.
	entry := &sessionEntry{id: s.ringSessionID(), sess: j.newSess, opts: req.Options, baseHash: inst.Hash()}
	if err := s.logCreateAndRegister(entry, req.Instance); err != nil {
		// Not durable ⇒ not created: acknowledging a session the WAL does
		// not know about would silently drop it on the next restart.
		j.newSess.Close()
		writeError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	s.metrics.recordSessionCreate()
	info := entry.info()
	info.Result.ElapsedMS = st.Result.ElapsedMS
	writeJSON(w, http.StatusCreated, info)
}

// waitJob waits for a queued job. Without a WAL a vanished client just
// abandons the wait (the worker still completes the job); with one, the
// handler must see the job finish so the applied mutation is logged before
// anything else touches the session.
func (s *Server) waitJob(j *job, r *http.Request) bool {
	if s.wal != nil {
		<-j.done
		return true
	}
	select {
	case <-j.done:
		return true
	case <-r.Context().Done():
		return false
	}
}

func (s *Server) handleSessionList(w http.ResponseWriter, r *http.Request) {
	entries := s.sessions.list()
	infos := make([]*api.SessionInfo, 0, len(entries))
	for _, e := range entries {
		infos = append(infos, e.info())
	}
	writeJSON(w, http.StatusOK, api.SessionList{Sessions: infos})
}

func (s *Server) handleSessionGet(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	entry, ok := s.sessions.get(id)
	if !ok && s.ringst != nil {
		if s.ringSessionMiss(w, r, id, nil) {
			return
		}
		entry, ok = s.sessions.get(id) // takeover may have installed it
	}
	if !ok {
		writeError(w, http.StatusNotFound, "unknown session %q", id)
		return
	}
	writeJSON(w, http.StatusOK, entry.info())
}

// handleSessionUpdate applies one delta batch through the worker pool. The
// residual re-solve touches only the uncovered new edges, so updates are
// cheap; concurrent updates to one session serialize inside the session.
func (s *Server) handleSessionUpdate(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	// Read the body before the registry lookup: a misrouted update is
	// proxied to its owner with the bytes it arrived with.
	var d api.SessionDelta
	body, ok := s.decode(w, r, &d)
	if !ok {
		return
	}
	entry, ok := s.sessions.get(id)
	if !ok && s.ringst != nil {
		if s.ringSessionMiss(w, r, id, body) {
			return
		}
		entry, ok = s.sessions.get(id) // takeover may have installed it
	}
	if !ok {
		writeError(w, http.StatusNotFound, "unknown session %q", id)
		return
	}
	delta := distcover.Delta{Weights: d.Weights, Edges: d.Edges}
	if s.wal != nil {
		// Serialize apply+log per session and shut out snapshots between
		// the two (lock order walMu → commitMu(R); see durability.go).
		entry.walMu.Lock()
		defer entry.walMu.Unlock()
		s.commitMu.RLock()
		defer s.commitMu.RUnlock()
	}
	j := newSessionUpdateJob(entry, delta)
	if err := s.queue.tryEnqueue(j); err != nil {
		s.rejectFull(w)
		return
	}
	s.metrics.recordSubmit()
	if !s.waitJob(j, r) {
		return
	}
	st := j.snapshot()
	if st.Error != "" {
		writeError(w, http.StatusUnprocessableEntity, "session update failed: %s", st.Error)
		return
	}
	if s.wal != nil {
		if err := s.logUpdate(entry, delta); err != nil {
			// The delta is applied in memory but not durable; surface that
			// loudly rather than acknowledging a write the log lost.
			writeError(w, http.StatusInternalServerError, "%v", err)
			return
		}
	}
	s.metrics.recordSessionUpdate()
	// The delta grew the session's instance: re-weigh it against the byte
	// budget (this can evict colder sessions, or even this one).
	s.sessions.refresh(entry)
	writeJSON(w, http.StatusOK, &api.SessionUpdateResult{
		NewVertices:      j.upd.NewVertices,
		NewEdges:         j.upd.NewEdges,
		CoveredOnArrival: j.upd.CoveredOnArrival,
		ResidualEdges:    j.upd.ResidualEdges,
		ResidualVertices: j.upd.ResidualVertices,
		Joined:           j.upd.Joined,
		AddedWeight:      j.upd.AddedWeight,
		Iterations:       j.upd.Iterations,
		Rounds:           j.upd.Rounds,
		ElapsedMS:        st.Result.ElapsedMS,
		Session:          entry.info(),
	})
}

func (s *Server) handleSessionDelete(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	entry, ok := s.sessions.get(id)
	if !ok && s.ringst != nil {
		if s.ringSessionMiss(w, r, id, nil) {
			return
		}
		entry, ok = s.sessions.get(id)
	}
	if !ok {
		writeError(w, http.StatusNotFound, "unknown session %q", id)
		return
	}
	if s.wal != nil {
		entry.walMu.Lock()
		defer entry.walMu.Unlock()
		s.commitMu.RLock()
		defer s.commitMu.RUnlock()
	}
	if !s.sessions.remove(id) {
		writeError(w, http.StatusNotFound, "unknown session %q", id)
		return
	}
	if s.wal != nil {
		s.logDelete(id)
	}
	s.invalidatePeerCaches(entry)
	w.WriteHeader(http.StatusNoContent)
}

func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	j, ok := s.jobs.get(id)
	if !ok {
		writeError(w, http.StatusNotFound, "unknown job %q", id)
		return
	}
	writeJSON(w, http.StatusOK, j.snapshot())
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, api.Health{
		Status:        "ok",
		Workers:       s.cfg.Workers,
		QueueDepth:    s.queue.depth(),
		QueueCapacity: s.queue.capacity(),
		CacheEntries:  s.cache.len(),
		Sessions:      s.sessions.len(),
		SessionBytes:  s.sessions.totalBytes(),
	})
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	ringMembers := 0
	if s.ringst != nil {
		ringMembers = len(s.ringst.ring.Members())
	}
	s.metrics.writePrometheus(w, []gauge{
		{"coverd_ring_members", "Coordinator ring size (0 = standalone).", float64(ringMembers)},
		{"coverd_queue_depth", "Jobs waiting in the bounded queue.", float64(s.queue.depth())},
		{"coverd_queue_capacity", "Configured queue bound.", float64(s.queue.capacity())},
		{"coverd_workers", "Configured worker pool size.", float64(s.cfg.Workers)},
		{"coverd_cache_entries", "Entries in the instance-result cache.", float64(s.cache.len())},
		{"coverd_sessions", "Live incremental sessions.", float64(s.sessions.len())},
		{"coverd_session_bytes", "Estimated heap footprint of all live sessions.", float64(s.sessions.totalBytes())},
		{"coverd_session_bytes_budget", "Configured session memory budget (0 = unbounded).", float64(s.cfg.SessionMemoryBudget)},
	})
}

// rejectFull emits the 429 backpressure response.
func (s *Server) rejectFull(w http.ResponseWriter) {
	s.metrics.recordBackpressure()
	w.Header().Set("Retry-After", "1")
	writeError(w, http.StatusTooManyRequests, "job queue full (capacity %d); retry later", s.queue.capacity())
}
