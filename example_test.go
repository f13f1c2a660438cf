package bookleaf_test

import (
	"fmt"
	"log"

	"bookleaf"
)

// ExampleRun runs a small Sod shock tube and reports the conservation
// audit — the minimal end-to-end use of the public API.
func ExampleRun() {
	res, err := bookleaf.Run(bookleaf.Config{Problem: "sod", NX: 50, NY: 2})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("reached t=%.2f\n", res.Time)
	fmt.Printf("mass conserved: %t\n", res.MassFinal == res.Mass0)
	fmt.Printf("energy drift below 1e-12: %t\n", res.EnergyDrift() < 1e-12)
	// Output:
	// reached t=0.25
	// mass conserved: true
	// energy drift below 1e-12: true
}

// ExampleConfig_threads documents the hybrid configuration knobs.
func ExampleConfig_threads() {
	res, err := bookleaf.Run(bookleaf.Config{Problem: "sod", NX: 32, NY: 4, MaxSteps: 5, Ranks: 1, Threads: 4})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(res.Ranks, res.Threads, res.Steps)
	// Output: 1 4 5
}
