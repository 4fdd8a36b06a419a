package main

import "testing"

// TestExampleRuns runs the example end to end: it serves on 127.0.0.1:0,
// drives every SDK call it shows and returns.
func TestExampleRuns(t *testing.T) { main() }
