//go:build !linux

package main

import "runtime"

// Off Linux the benchmark runs but cannot name the filesystem, so it cannot
// refuse tmpfs, and reports no peak RSS.
func filesystemName(string) (string, error) { return "unknown", nil }

func peakRSSMB() float64 { return 0 }

func kernelRelease() string { return runtime.GOOS }
