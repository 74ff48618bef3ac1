package main

import (
	"testing"

	"shef/internal/experiments"
)

func TestParseScale(t *testing.T) {
	for _, tc := range []struct {
		in      string
		want    experiments.Scale
		wantErr bool
	}{
		{in: "quick", want: experiments.Quick},
		{in: "paper", want: experiments.Paper},
		{in: "papre", wantErr: true},
		{in: "Paper", wantErr: true},
		{in: "", wantErr: true},
	} {
		got, err := parseScale(tc.in)
		if (err != nil) != tc.wantErr {
			t.Errorf("parseScale(%q) error = %v, want error %v", tc.in, err, tc.wantErr)
			continue
		}
		if err == nil && got != tc.want {
			t.Errorf("parseScale(%q) = %v, want %v", tc.in, got, tc.want)
		}
	}
}
