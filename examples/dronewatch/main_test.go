package main

import (
	"fmt"
	"os"
	"testing"
)

// TestMain runs the package's tests in a scratch working directory, because
// the program writes dronewatch.dot to the one it runs in.
func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "dronewatch")
	if err == nil {
		err = os.Chdir(dir)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

// Example_dronewatch runs the dronewatch program and checks what it prints:
// the synthetic world and stream are seeded, so the output is fixed. The
// one-year stream window evicts against the newest fact the KG holds, which
// the path coherences depend on.
func Example_dronewatch() {
	main()
	// Output:
	// == What is moving in the drone market? ==
	//   Skydyne Ventures             entity    burst=4.0x (3 mentions)
	//
	// == Acquisition check ==
	// acquired Parrot:
	//   (no known facts)
	//
	// == Why is Windermere involved with drones? ==
	// Paths from Windermere to DJI:
	//   coherence=0.1207: Windermere -[manufactures]-> Osprey 3 ; Osprey 3 <-[deploys]- Quadlift Ventures ; Quadlift Ventures -[manufactures]-> Spark 3 ; Spark 3 <-[manufactures]- DJI
	//   coherence=0.1302: Windermere -[manufactures]-> Osprey 3 ; Osprey 3 <-[deploys]- Quadlift Ventures ; Quadlift Ventures -[invests]-> DJI
	//   coherence=0.1437: Windermere -[manufactures]-> Osprey 3 ; Osprey 3 <-[deploys]- Quadlift Ventures ; Quadlift Ventures <-[competesWith]- Novascan Technologies ; Novascan Technologies -[invests]-> DJI
	//
	// == Hypothesis plausibility (BPR link prediction) ==
	//   P(Amazon acquired Parrot) ≈ 0.50
	//   P(Amazon acquired Yuneec) ≈ 0.50
	//   P(Amazon acquired 3D Robotics) ≈ 0.50
	//
	// wrote dronewatch.dot (render with: dot -Tpng dronewatch.dot)
}
