package main

import "testing"

func TestDefaultAdvertise(t *testing.T) {
	for _, c := range []struct {
		addr, want string
		wantErr    bool
	}{
		{addr: ":8431", want: "http://127.0.0.1:8431"},
		{addr: "127.0.0.1:8431", want: "http://127.0.0.1:8431"},
		{addr: "0.0.0.0:8431", want: "http://127.0.0.1:8431"},
		{addr: "[::]:8431", want: "http://127.0.0.1:8431"},
		{addr: "[::1]:8431", want: "http://[::1]:8431"},
		{addr: "localhost:8431", want: "http://localhost:8431"},
		{addr: "127.0.0.1", wantErr: true},
		{addr: "localhost:", wantErr: true},
		{addr: "[::1:8431", wantErr: true},
	} {
		got, err := defaultAdvertise(c.addr)
		if c.wantErr {
			if err == nil {
				t.Errorf("defaultAdvertise(%q) = %q, want an error", c.addr, got)
			}
			continue
		}
		if err != nil || got != c.want {
			t.Errorf("defaultAdvertise(%q) = %q, %v; want %q", c.addr, got, err, c.want)
		}
	}
}
