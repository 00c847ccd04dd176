package server

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
	"time"

	"distcover/server/api"
)

// solveBodySeeds are envelope shapes around a small valid instance: the
// client's own encoding, the variants the envelope scan accepts, and the
// ones it must leave to encoding/json.
var solveBodySeeds = []string{
	`{"instance":{"weights":[3,1,4],"edges":[[0,1],[1,2],[0,2]]},"options":{}}`,
	`{"instance":{"weights":[3,1,4],"edges":[[0,1],[1,2],[0,2]]},"options":{"epsilon":0.5,"engine":"flat","no_cache":true},"async":true}`,
	`{"options":{"epsilon":0.25},"async":false,"instance":{"edges":[[0,1]],"weights":[2,2]}}`,
	" \n{ \"instance\" :\t{\"weights\":[1,1],\"edges\":[[0,1]]} ,\r\n \"options\" : { \"engine\" : \"sim\" } } \n",
	`{"instance":{"weights":[1,1],"edges":[[0,1]]}}`,
	`{"Instance":{"weights":[1,1],"edges":[[0,1]]}}`,
	`{"instanc\u0065":{"weights":[1,1],"edges":[[0,1]]}}`,
	`{"instance":{"weights":[1],"edges":[]},"instance":{"weights":[1,1],"edges":[[0,1]]}}`,
	`{"instance":{"weights":[1,1],"edges":[[0,1]]},"options":{"epsilon":0.5},"options":{"engine":"flat"}}`,
	`null`,
	``,
	`{}`,
	`[]`,
	`{"instance":null}`,
	`{"instance":[1,2]}`,
	`{"instance":"{}"}`,
	`{"instance":{"weights":[1,1],"edges":[[0,1]]},"options":null,"async":null}`,
	`{"ilp":{"weights":[1,2],"constraints":[{"vars":[0,1],"coefs":[1,1],"bound":1}]}}`,
	`{"instance":{"weights":[1,1],"edges":[[0,1]]},"ilp":{"weights":[1],"constraints":[]}}`,
	`{"instance":{"weights":[1,1],"edges":[[0,1]]},"ilp":5}`,
	`{"instance":{"weights":[1,1],"edges":[[0,1]]},"extra":[1,{"a":"}"}]}`,
	`{"instance":{"weights":[1,1],"edges":[[0,1]],"note":"]}\"{["},"options":{"engine":"fl]at}\"{"}}`,
	`{"instance":{"weights":[1,1],"edges":[[0,1]]},"options":{"engine":"\"}]"}}`,
	`{"instance":{"weights":[1,1],"edges":[[0,1]]}} trailing`,
	`{"instance":{"weights":[1,1],"edges":[[0,1]]}}{}`,
	`{"instance":{"weights":[1,,2]}}`,
	`{"instance":{"weights":[1,2],"edges":[[0,1]}]}`,
	`{"instance":{"weights":[1,2],"edges":[[0,9]]}}`,
	`{"instance":{"weights":[1,1],"edges":[[0,1]]},"options":{"epsilon":"x"}}`,
	`{"instance":{"weights":[1,1],"edges":[[0,1]]},"options":[]}`,
	`{"instance":{"weights":[1,1],"edges":[[0,1]]},"async":"true"}`,
	`{"instance":{"weights":[1,1],"edges":[[0,1]]},"async":tru}`,
	`{"instance":{"weights":[1,1],"edges":[[0,1]]},"async":1}`,
	`{"instance":{"weights":[1,1],"edges":[[0,1]]},}`,
	`{"instance":{"weights":[1,1],"edges":[[0,1]]}`,
	`{"instance":{"weights":[1,1],"edges":[[0,1]]},"options":{"engine":"<&>"}}`,
	`{"instance":{"weights":[1,1],"edges":[[0,1]],"x":` + strings.Repeat("[", 70) + strings.Repeat("]", 70) + `}}`,
	// Nesting at encoding/json's limit of 10000 within the instance, one
	// past it within the body.
	`{"instance":{"weights":[1,1],"edges":[[0,1]],"x":` + strings.Repeat("[", 9999) + strings.Repeat("]", 9999) + `}}`,
	"{\"instance\":{\"weights\":[1,1],\"edges\":[[0,1]]},\"options\":{\"engine\":\"\xff\"}}",
}

// FuzzSolveRequestDecode checks that the admission path of POST /v1/solve
// (api.DecodeSolveRequest, parseJob, and the encoding/json re-decode when
// parseJob rejects) treats every body exactly like encoding/json followed
// by parseJob: the same decode error text, the same parse error text, and
// for an accepted body the same options, async flag, problem and content
// hash. POST /v1/sessions' admission is checked against encoding/json into
// a SessionRequest the same way.
func FuzzSolveRequestDecode(f *testing.F) {
	for _, seed := range solveBodySeeds {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		req, j, parseErr, decodeErr := admitSolve(body, nil)
		var want api.SolveRequest
		wantDecodeErr := decodeJSON(body, &want)
		if errText(decodeErr) != errText(wantDecodeErr) {
			t.Fatalf("solve decode: got %q, want %q", errText(decodeErr), errText(wantDecodeErr))
		}
		if wantDecodeErr == nil {
			wantJ, wantParseErr := parseJob(want, nil)
			if errText(parseErr) != errText(wantParseErr) {
				t.Fatalf("solve parse: got %q, want %q", errText(parseErr), errText(wantParseErr))
			}
			if req.Options != want.Options || req.Async != want.Async ||
				!bytes.Equal(req.Instance, want.Instance) || !reflect.DeepEqual(req.ILP, want.ILP) {
				t.Fatalf("solve request: got %+v, want %+v", req, want)
			}
			if wantJ != nil && (j.hash != wantJ.hash || j.cacheKey != wantJ.cacheKey) {
				t.Fatalf("solve key: got %s, want %s", j.cacheKey, wantJ.cacheKey)
			}
		}

		sreq, inst, sParseErr, sDecodeErr := admitSession(body)
		var swant api.SessionRequest
		wantDecodeErr = decodeJSON(body, &swant)
		if errText(sDecodeErr) != errText(wantDecodeErr) {
			t.Fatalf("session decode: got %q, want %q", errText(sDecodeErr), errText(wantDecodeErr))
		}
		if wantDecodeErr == nil {
			wantInst, wantParseErr := parseSessionInstance(swant)
			if errText(sParseErr) != errText(wantParseErr) {
				t.Fatalf("session parse: got %q, want %q", errText(sParseErr), errText(wantParseErr))
			}
			if sreq.Options != swant.Options || !bytes.Equal(sreq.Instance, swant.Instance) {
				t.Fatalf("session request: got %+v, want %+v", sreq, swant)
			}
			if wantInst != nil && inst.Hash() != wantInst.Hash() {
				t.Fatalf("session instance hash: got %s, want %s", inst.Hash(), wantInst.Hash())
			}
		}
	})
}

func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// TestRecordStageAllocs pins the request-stage histogram's observation
// cost: it runs on every solve request and must not allocate.
func TestRecordStageAllocs(t *testing.T) {
	m := NewMetrics()
	if n := testing.AllocsPerRun(100, func() { m.recordStage(stageDecode, time.Millisecond) }); n != 0 {
		t.Fatalf("recordStage allocates %v times per observation, want 0", n)
	}
}
