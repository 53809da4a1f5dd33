package main

import "testing"

func TestParseCounts(t *testing.T) {
	got, err := parseCounts(" 1, 4,16 ")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || got[0] != 1 || got[1] != 4 || got[2] != 16 {
		t.Fatalf("parseCounts = %v", got)
	}
	for _, bad := range []string{"", "0", "-2", "x", "1,,y"} {
		if _, err := parseCounts(bad); err == nil {
			t.Errorf("parseCounts(%q) accepted", bad)
		}
	}
}
