package steal

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"

	"simdtree/internal/checkpoint"
	"simdtree/internal/simd"
)

// Wire types of the shard-session protocol.  []byte fields travel as
// base64 strings (encoding/json's default), which keeps the protocol
// JSON-debuggable; the hot load-balancing path — flags, round and absorb
// batches — travels in the binary batch encoding instead (batch.go).
type (
	// OpenResponse answers opening a shard session.
	OpenResponse struct {
		Session  string `json:"session"`
		Lo       int    `json:"lo"`
		Hi       int    `json:"hi"`
		AllEmpty bool   `json:"all_empty"`
		AnyDonor bool   `json:"any_donor"`
	}
	// StepResponse mirrors simd.CycleInfo.
	StepResponse struct {
		Active   int   `json:"active"`
		Goals    int64 `json:"goals"`
		Peak     int   `json:"peak"`
		AllEmpty bool  `json:"all_empty"`
		AnyDonor bool  `json:"any_donor"`
	}
	// ExportResponse carries the shard's stack payloads and domain state.
	ExportResponse struct {
		Stacks      [][]byte `json:"stacks"`
		DomainState []byte   `json:"domain_state,omitempty"`
	}
	// MergeRequest carries peer shards' domain states to fold in.
	MergeRequest struct {
		States [][]byte `json:"states"`
	}
	// MergeResponse carries the merged domain state.
	MergeResponse struct {
		DomainState []byte `json:"domain_state,omitempty"`
	}
	// StatusResponse carries the cycle-boundary flags.
	StatusResponse struct {
		AllEmpty bool `json:"all_empty"`
		AnyDonor bool `json:"any_donor"`
	}
)

// HTTPShard drives a shard session hosted by a remote simdserve node over
// its /v1/steal/sessions endpoints.  It implements Shard.
type HTTPShard struct {
	client *http.Client
	base   string // node base URL, no trailing slash
	id     string
	lo, hi int
}

// OpenHTTPShard opens a shard session on the node at base: the node
// decodes the checkpoint, builds the shard machine for [lo, hi) and
// returns a session handle.  spool asks the node to persist checkpoints
// shipped via WriteCheckpoint under the job's spool entry, making the
// sharded job survive a node restart.
func OpenHTTPShard(ctx context.Context, client *http.Client, base string, ckpt []byte, lo, hi int, spool bool) (*HTTPShard, error) {
	if client == nil {
		client = http.DefaultClient
	}
	q := url.Values{}
	q.Set("lo", strconv.Itoa(lo))
	q.Set("hi", strconv.Itoa(hi))
	if spool {
		q.Set("spool", "1")
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, base+"/v1/steal/sessions?"+q.Encode(), bytes.NewReader(ckpt))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", checkpoint.ContentType)
	resp, err := client.Do(req)
	if err != nil {
		return nil, err
	}
	var open OpenResponse
	if err := readJSON(resp, &open); err != nil {
		return nil, fmt.Errorf("steal: opening shard session on %s: %w", base, err)
	}
	if open.Session == "" || open.Lo != lo || open.Hi != hi {
		return nil, fmt.Errorf("steal: node %s answered session %q range [%d, %d), want [%d, %d)", base, open.Session, open.Lo, open.Hi, lo, hi)
	}
	return &HTTPShard{client: client, base: base, id: open.Session, lo: lo, hi: hi}, nil
}

// Base returns the node base URL the shard session lives on.
func (s *HTTPShard) Base() string { return s.base }

// Session returns the node-assigned session id.
func (s *HTTPShard) Session() string { return s.id }

// Range implements Shard.
func (s *HTTPShard) Range() (int, int) { return s.lo, s.hi }

func (s *HTTPShard) url(suffix string) string {
	return s.base + "/v1/steal/sessions/" + url.PathEscape(s.id) + suffix
}

// send issues one session request.
func (s *HTTPShard) send(ctx context.Context, method, u, contentType string, body []byte) (*http.Response, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, u, rd)
	if err != nil {
		return nil, err
	}
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	return s.client.Do(req)
}

// roundTrip issues one session request and decodes a JSON response into
// out (when non-nil).
func (s *HTTPShard) roundTrip(ctx context.Context, method, u, contentType string, body []byte, out any) error {
	resp, err := s.send(ctx, method, u, contentType, body)
	if err != nil {
		return err
	}
	if out == nil {
		return drain(resp)
	}
	return readJSON(resp, out)
}

// batchTrip issues one session request answered by a binary batch result.
func (s *HTTPShard) batchTrip(ctx context.Context, method, suffix string, body []byte) (*BatchResult, error) {
	contentType := ""
	if body != nil {
		contentType = BatchContentType
	}
	resp, err := s.send(ctx, method, s.url(suffix), contentType, body)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(io.LimitReader(resp.Body, MaxBatchSize+1))
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, statusError(resp.StatusCode, b)
	}
	return DecodeBatchResult(b)
}

// post sends a JSON body (when in is non-nil) and decodes a JSON response.
func (s *HTTPShard) post(ctx context.Context, suffix string, in, out any) error {
	var body []byte
	contentType := ""
	if in != nil {
		b, err := json.Marshal(in)
		if err != nil {
			return err
		}
		body = b
		contentType = "application/json"
	}
	return s.roundTrip(ctx, http.MethodPost, s.url(suffix), contentType, body, out)
}

// Step implements Shard.
func (s *HTTPShard) Step(ctx context.Context) (simd.CycleInfo, error) {
	var sr StepResponse
	if err := s.post(ctx, "/step", nil, &sr); err != nil {
		return simd.CycleInfo{}, err
	}
	return simd.CycleInfo{
		Active:   sr.Active,
		Goals:    sr.Goals,
		Peak:     sr.Peak,
		AllEmpty: sr.AllEmpty,
		AnyDonor: sr.AnyDonor,
	}, nil
}

// Flags implements Shard; the flags travel as packed words.
func (s *HTTPShard) Flags(ctx context.Context) ([]bool, []bool, error) {
	r, err := s.batchTrip(ctx, http.MethodGet, "/flags", nil)
	if err != nil {
		return nil, nil, err
	}
	if r.Busy == nil {
		return nil, nil, fmt.Errorf("steal: node %s answered flags without flags", s.base)
	}
	return r.Busy, r.Idle, nil
}

// Apply implements BatchShard: a round batch goes to the session's
// /round endpoint and an absorb batch to /absorb, one request each.
func (s *HTTPShard) Apply(ctx context.Context, b Batch) (BatchResult, error) {
	body, err := EncodeBatch(&b)
	if err != nil {
		return BatchResult{}, err
	}
	suffix := "/round"
	if len(b.Frames) > 0 {
		suffix = "/absorb"
	}
	r, err := s.batchTrip(ctx, http.MethodPost, suffix, body)
	if err != nil {
		return BatchResult{}, err
	}
	if err := r.answers(&b); err != nil {
		return BatchResult{}, fmt.Errorf("steal: node %s: %w", s.base, err)
	}
	return *r, nil
}

// Transfer implements Shard as a one-element round.
func (s *HTTPShard) Transfer(ctx context.Context, from, to int) (int, error) {
	return transferOne(ctx, s, from, to)
}

// Split implements Shard as a one-element round.
func (s *HTTPShard) Split(ctx context.Context, id uint64, from, to int) ([]byte, int, error) {
	return splitOne(ctx, s, id, from, to)
}

// Absorb implements Shard as a one-element absorb batch; the frame bytes
// travel unchanged.
func (s *HTTPShard) Absorb(ctx context.Context, frame []byte) (int, error) {
	return absorbOne(ctx, s, frame)
}

// Export implements Shard.
func (s *HTTPShard) Export(ctx context.Context) ([][]byte, []byte, error) {
	var er ExportResponse
	if err := s.roundTrip(ctx, http.MethodGet, s.url("/export"), "", nil, &er); err != nil {
		return nil, nil, err
	}
	return er.Stacks, er.DomainState, nil
}

// Merge implements Shard.
func (s *HTTPShard) Merge(ctx context.Context, states [][]byte) ([]byte, error) {
	var mr MergeResponse
	if err := s.post(ctx, "/merge", MergeRequest{States: states}, &mr); err != nil {
		return nil, err
	}
	return mr.DomainState, nil
}

// Status implements Shard.
func (s *HTTPShard) Status(ctx context.Context) (bool, bool, error) {
	var sr StatusResponse
	if err := s.roundTrip(ctx, http.MethodGet, s.url("/status"), "", nil, &sr); err != nil {
		return false, false, err
	}
	return sr.AllEmpty, sr.AnyDonor, nil
}

// WriteCheckpoint ships an assembled cluster-wide checkpoint to the node
// hosting this shard session; a session opened with spool enabled persists
// it under the job's spool entry.
func (s *HTTPShard) WriteCheckpoint(ctx context.Context, encoded []byte) error {
	return s.roundTrip(ctx, http.MethodPut, s.url("/checkpoint"), checkpoint.ContentType, encoded, nil)
}

// Close releases the session.  dropSpool additionally removes the spool
// entry the session wrote (used after a successful distributed run; a
// failed run keeps the last shipped checkpoint for recovery).
func (s *HTTPShard) Close(ctx context.Context, dropSpool bool) error {
	u := s.url("")
	if dropSpool {
		u += "?drop_spool=1"
	}
	return s.roundTrip(ctx, http.MethodDelete, u, "", nil, nil)
}

// readJSON checks the status and decodes the body into out.
func readJSON(resp *http.Response, out any) error {
	defer resp.Body.Close()
	body, err := io.ReadAll(io.LimitReader(resp.Body, MaxFrameSize+(1<<20)))
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return statusError(resp.StatusCode, body)
	}
	return json.Unmarshal(body, out)
}

// drain consumes a no-content response, surfacing error statuses.
func drain(resp *http.Response) error {
	defer resp.Body.Close()
	body, err := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusNoContent {
		return statusError(resp.StatusCode, body)
	}
	return nil
}

// statusError turns a non-OK response into an error, preferring the
// server's JSON error message.
func statusError(code int, body []byte) error {
	var e struct {
		Error string `json:"error"`
	}
	if json.Unmarshal(body, &e) == nil && e.Error != "" {
		return fmt.Errorf("steal: node answered %d: %s", code, e.Error)
	}
	msg := string(body)
	if len(msg) > 200 {
		msg = msg[:200]
	}
	if msg == "" {
		return errors.New("steal: node answered " + strconv.Itoa(code))
	}
	return fmt.Errorf("steal: node answered %d: %s", code, msg)
}
