package main

import (
	"slices"
	"strings"
	"testing"
)

func keys(es []experiment) []string {
	out := make([]string, len(es))
	for i, e := range es {
		out[i] = e.key
	}
	return out
}

func TestSelectExperiments(t *testing.T) {
	if _, err := selectExperiments("table1,bogus"); err == nil || !strings.Contains(err.Error(), `"bogus"`) {
		t.Fatalf(`"table1,bogus": err = %v, want one naming "bogus"`, err)
	}

	got, err := selectExperiments(" Fig1 , table1")
	if err != nil {
		t.Fatal(err)
	}
	if want := []string{"fig1", "table1"}; !slices.Equal(keys(got), want) {
		t.Fatalf(`" Fig1 , table1" selected %v, want %v`, keys(got), want)
	}

	got, err = selectExperiments("")
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(keys(got), keys(catalogue)) {
		t.Fatalf(`"" selected %v, want every experiment %v`, keys(got), keys(catalogue))
	}
}
