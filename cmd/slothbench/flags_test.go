package main

import (
	"strings"
	"testing"
)

// TestParseFlags: values the flag package accepts but no experiment can
// use are rejected with an error naming the flag, and the boundary values
// each flag does mean something at are accepted.
func TestParseFlags(t *testing.T) {
	for _, c := range []struct {
		args    []string
		wantErr string // "" = accepted
	}{
		{nil, ""},
		{[]string{"-rtt", "0"}, ""},
		{[]string{"-rtt", "-1ms"}, "-rtt"},
		{[]string{"-txns", "1"}, ""},
		{[]string{"-txns", "0"}, "-txns"},
		{[]string{"-reps", "1"}, ""},
		{[]string{"-reps", "0"}, "-reps"},
		{[]string{"-reps", "-2"}, "-reps"},
		{[]string{"-sessions", "0"}, ""},
		{[]string{"-sessions", "-3"}, "-sessions"},
		{[]string{"-workers", "0"}, "-workers"},
		{[]string{"-shards", "1,x"}, "-shards"},
		{[]string{"-faults", "1"}, "-faults"},
		{[]string{"-dispatch", "shared"}, "-dispatch"},
		{[]string{"-families", "range"}, "-families"},
	} {
		_, err := parseFlags(c.args)
		switch {
		case c.wantErr == "" && err != nil:
			t.Errorf("%v: unexpected error %v", c.args, err)
		case c.wantErr != "" && err == nil:
			t.Errorf("%v: accepted, want an error naming %s", c.args, c.wantErr)
		case c.wantErr != "" && !strings.Contains(err.Error(), c.wantErr):
			t.Errorf("%v: error %q does not name %s", c.args, err, c.wantErr)
		}
	}
}
