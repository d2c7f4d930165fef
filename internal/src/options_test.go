package src

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"sre/internal/obs"
	"sre/internal/route"
)

// TestOptionsCanonicalEncoding is the one test behind "declaring a field
// ships it and keys it": every Options field not marked process-local,
// set non-zero on its own, must change the canonical bytes (so it moves
// analysis.CacheKey, which hashes them) and survive
// DecodeOptions(Encode(o)) (so it reaches workers, whose init frame
// carries them). It needs no list of fields: a new field is covered by
// being declared, and one of a type that cannot be encoded fails here
// and at every Encode call.
func TestOptionsCanonicalEncoding(t *testing.T) {
	base, err := Options{}.Encode()
	if err != nil {
		t.Fatal(err)
	}
	typ := reflect.TypeOf(Options{})
	for i := 0; i < typ.NumField(); i++ {
		if typ.Field(i).Tag.Get("json") == "-" {
			continue
		}
		var o Options
		// Every kind Encode accepts; any other fails Encode below.
		switch f := reflect.ValueOf(&o).Elem().Field(i); {
		case f.Kind() == reflect.Bool:
			f.SetBool(true)
		case f.Kind() == reflect.String:
			f.SetString("bfs")
		case f.CanInt():
			f.SetInt(7)
		case f.CanUint():
			f.SetUint(7)
		case f.CanFloat():
			f.SetFloat(7)
		}
		enc, err := o.Encode()
		if err != nil {
			t.Fatal(err)
		}
		if bytes.Equal(enc, base) {
			t.Errorf("Options.%s does not change the canonical encoding", typ.Field(i).Name)
		}
		if got, err := DecodeOptions(enc); err != nil || !reflect.DeepEqual(got, o) {
			t.Errorf("Options.%s does not survive decode(encode): sent %+v, got %+v (%v)", typ.Field(i).Name, o, got, err)
		}
	}

	// Process-local fields never reach the bytes.
	local := Options{Telemetry: obs.New(), Interrupt: func() error { return nil },
		Prefixes: []route.Prefix{route.MustParsePrefix("10.0.0.0/8")}, Parallelism: 8}
	if enc, err := local.Encode(); err != nil || !bytes.Equal(enc, base) {
		t.Errorf("process-local fields changed the encoding: %s (%v), want %s", enc, err, base)
	}
	if _, err := DecodeOptions([]byte(`{"prune_k":1,"no_such_option":true}`)); err == nil {
		t.Error("DecodeOptions accepted an option Options does not have")
	}

	// A field that cannot cross a process boundary must be marked, not
	// skipped: unmarked, encoding fails and names it.
	for name, v := range map[string]any{
		"Hook":   struct{ Hook func() error }{},
		"Tel":    struct{ Tel *obs.Telemetry }{},
		"Set":    struct{ Set map[string]bool }{},
		"hidden": struct{ hidden int }{},
	} {
		if _, err := encodeCanonical(v); err == nil || !strings.Contains(err.Error(), name) {
			t.Errorf("encoding a struct with unmarked field %s: err = %v, want an error naming it", name, err)
		}
	}
	marked := struct {
		K    int          `json:"k"`
		Hook func() error `json:"-"`
	}{K: 1, Hook: func() error { return nil }}
	if enc, err := encodeCanonical(marked); err != nil || string(enc) != `{"k":1}` {
		t.Errorf("marked process-local field: %s, %v", enc, err)
	}
}
