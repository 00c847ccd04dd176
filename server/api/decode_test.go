package api

import (
	"bytes"
	"encoding/json"
	"testing"
)

// aliases reports whether sub starts inside body: the envelope scan keeps
// the instance in place, while encoding/json copies it.
func aliases(sub, body []byte) bool {
	for i := range body {
		if len(sub) > 0 && &body[i] == &sub[0] {
			return true
		}
	}
	return false
}

// TestDecodeSolveRequestScan pins which bodies the envelope scan takes and
// which it leaves to encoding/json, and that both give the body the same
// meaning. FuzzSolveRequestDecode (package server) checks the meaning on
// arbitrary bodies; this test checks that the fast path is actually taken.
func TestDecodeSolveRequestScan(t *testing.T) {
	const inst = `{"weights":[3,1,4],"edges":[[0,1],[1,2],[0,2]]}`
	for _, tc := range []struct {
		body string
		fast bool
	}{
		{`{"instance":` + inst + `,"options":{}}`, true},
		{`{"instance":` + inst + `,"options":{"epsilon":0.5,"engine":"flat","no_cache":true},"async":true}`, true},
		{`{"async":false,"options":{"trace":true},"instance":` + inst + `}`, true},
		{" \n{ \"instance\" :\t" + inst + " ,\r\n \"options\" : null } \n", true},
		{`{"instance":` + inst + `,"options":{"engine":"\"}]{["}}`, true},
		{`{"instance":{"weights":[1,,2]}}`, true}, // balanced: parse rejects, caller re-decodes
		{`{"Instance":` + inst + `}`, false},
		{`{"instanc\u0065":` + inst + `}`, false},
		{`{"instance":` + inst + `,"instance":` + inst + `}`, false},
		{`{"instance":` + inst + `,"ilp":null}`, false},
		{`{"instance":` + inst + `,"unknown":1}`, false},
		{`{"instance":` + inst + `} `, true},
		{`{"instance":` + inst + `} x`, false},
		{`{"instance":null}`, false},
		{`{"instance":` + inst + `,"options":{"epsilon":"x"}}`, false},
		{`{"instance":` + inst + `,"async":"true"}`, false},
		{`{"instance":` + inst, false},
		{`null`, false},
	} {
		body := []byte(tc.body)
		var got SolveRequest
		err := DecodeSolveRequest(body, &got)
		if fast := err == nil && aliases(got.Instance, body); fast != tc.fast {
			t.Errorf("%s: fast path %v, want %v (err %v)", tc.body, fast, tc.fast, err)
		}
		var want SolveRequest
		wantErr := json.NewDecoder(bytes.NewReader(body)).Decode(&want)
		if wantErr != nil {
			if !tc.fast && (err == nil || err.Error() != wantErr.Error()) {
				t.Errorf("%s: error %v, want %v", tc.body, err, wantErr)
			}
			continue
		}
		if err != nil || got.Options != want.Options || got.Async != want.Async ||
			!bytes.Equal(got.Instance, want.Instance) || (got.ILP == nil) != (want.ILP == nil) {
			t.Errorf("%s: got %+v (err %v), want %+v", tc.body, got, err, want)
		}
	}
}

// TestDecodeSessionRequestScan: a session create body has no async key,
// so one carrying it is left to encoding/json, which ignores it.
func TestDecodeSessionRequestScan(t *testing.T) {
	const inst = `{"weights":[1,1],"edges":[[0,1]]}`
	for _, tc := range []struct {
		body string
		fast bool
	}{
		{`{"instance":` + inst + `,"options":{"epsilon":0.5}}`, true},
		{`{"instance":` + inst + `,"async":true}`, false},
	} {
		body := []byte(tc.body)
		var got SessionRequest
		if err := DecodeSessionRequest(body, &got); err != nil {
			t.Fatalf("%s: %v", tc.body, err)
		}
		if fast := aliases(got.Instance, body); fast != tc.fast {
			t.Errorf("%s: fast path %v, want %v", tc.body, fast, tc.fast)
		}
		if string(got.Instance) != inst {
			t.Errorf("%s: instance %s", tc.body, got.Instance)
		}
	}
}

// TestDecodeSolveRequestMerges: like encoding/json, the scan decodes over
// the request it is given, keeping fields the body does not set.
func TestDecodeSolveRequestMerges(t *testing.T) {
	body := []byte(`{"instance":{"weights":[1],"edges":[]},"options":{"epsilon":0.5}}`)
	got := SolveRequest{Options: SolveOptions{Engine: EngineFlat}, Async: true}
	if err := DecodeSolveRequest(body, &got); err != nil {
		t.Fatal(err)
	}
	if !aliases(got.Instance, body) {
		t.Fatal("envelope scan not taken")
	}
	want := SolveRequest{Options: SolveOptions{Engine: EngineFlat}, Async: true}
	if err := json.Unmarshal(body, &want); err != nil {
		t.Fatal(err)
	}
	if got.Options != want.Options || got.Async != want.Async {
		t.Fatalf("got %+v, want %+v", got, want)
	}
}
