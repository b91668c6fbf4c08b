// Voltage/temperature robustness (paper §5.2): challenges selected with the
// V/T-hardened thresholds stay stable at every corner from 0.8 V/0 °C to
// 1.0 V/60 °C, while unselected challenges flip.
//
//	go run ./examples/voltage_temp
package main

import (
	"fmt"
	"log"

	"xorpuf"
)

func main() {
	params := xorpuf.DefaultParams()
	chip := xorpuf.NewChip(2024, params, 6)

	// Enroll at the nominal condition but harden the thresholds across
	// all nine V/T corners, exactly as Section 5.2 prescribes.
	cfg := xorpuf.DefaultEnrollConfig()
	cfg.Conditions = xorpuf.Corners()
	enr, err := xorpuf.Enroll(chip, 3, cfg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("enrolled 6-XOR chip with V/T-hardened thresholds: β0=%.2f β1=%.2f\n\n",
		enr.Model.Beta0, enr.Model.Beta1)

	// Select 200 challenges with the hardened model and also draw 200
	// purely random ones as the control group.
	sel := xorpuf.NewKeySelector(enr.Model, 11)
	selected, predicted, err := sel.Next(200, 0)
	if err != nil {
		log.Fatal(err)
	}
	random := xorpuf.RandomChallenges(12, 200, chip.Stages())
	fmt.Printf("selected 200 challenges (examined %d; yield %.2f%%)\n\n",
		sel.Examined(), 100*200/float64(sel.Examined()))

	x := xorpuf.NewXORPUF(chip, 6)
	refRandom := make([]uint8, len(random))
	for i, c := range random {
		refRandom[i] = x.NoiselessResponse(c, xorpuf.Nominal)
	}

	fmt.Printf("%-14s  %-24s  %-24s\n", "condition", "selected: flipped bits", "random: flipped bits")
	src := xorpuf.NewSource(13)
	for _, cond := range xorpuf.Corners() {
		selFlips, rndFlips := 0, 0
		for i, w := range selected {
			if x.Eval(src, xorpuf.ChallengeFromWord(w, chip.Stages()), cond) != predicted[i] {
				selFlips++
			}
		}
		for i, c := range random {
			if x.Eval(src, c, cond) != refRandom[i] {
				rndFlips++
			}
		}
		fmt.Printf("%-14s  %5d / 200               %5d / 200\n", cond, selFlips, rndFlips)
	}
	fmt.Println("\nreading: model-selected CRPs survive every corner with (near-)zero flips,")
	fmt.Println("so the server can require a perfect match; random CRPs flip constantly.")
}
