package client

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"

	"distcover"
	"distcover/server/api"
)

// TestSolveBodyMatchesEncodingJSON pins instanceBody to the bytes
// json.Marshal gives the equivalent api.SolveRequest (and, without async,
// api.SessionRequest): for zero options, for each option field set on its
// own, for all of them at once, and with Async.
func TestSolveBodyMatchesEncodingJSON(t *testing.T) {
	inst, err := distcover.NewInstance(
		[]int64{3, 1, 4, 1, 5},
		[][]int{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {0, 4}},
	)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := EncodeInstance(inst)
	if err != nil {
		t.Fatal(err)
	}

	// One non-zero value per field kind; the engine name carries the
	// characters encoding/json escapes for HTML.
	nonZero := func(f reflect.Value) {
		switch f.Kind() {
		case reflect.Float64:
			f.SetFloat(0.5)
		case reflect.Bool:
			f.SetBool(true)
		case reflect.Int:
			f.SetInt(3)
		case reflect.String:
			f.SetString(`flat<&>"`)
		default:
			t.Fatalf("SolveOptions field of kind %s has no test value", f.Kind())
		}
	}
	optionSets := []api.SolveOptions{{}}
	var all api.SolveOptions
	for i := 0; i < reflect.TypeOf(all).NumField(); i++ {
		var one api.SolveOptions
		nonZero(reflect.ValueOf(&one).Elem().Field(i))
		nonZero(reflect.ValueOf(&all).Elem().Field(i))
		optionSets = append(optionSets, one)
	}
	optionSets = append(optionSets, all)

	for _, opts := range optionSets {
		for _, async := range []bool{false, true} {
			got, err := instanceBody(inst, opts, async)
			if err != nil {
				t.Fatal(err)
			}
			want, err := json.Marshal(api.SolveRequest{Instance: raw, Options: opts, Async: async})
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("options %+v async %v:\n got %s\nwant %s", opts, async, got, want)
			}
			if async {
				continue
			}
			want, err = json.Marshal(api.SessionRequest{Instance: raw, Options: opts})
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("session options %+v:\n got %s\nwant %s", opts, got, want)
			}
		}
	}
}
