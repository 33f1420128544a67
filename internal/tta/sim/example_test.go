package sim_test

import (
	"fmt"
	"log"

	"ttastartup/internal/tta/sim"
)

// ExampleCluster_Run simulates a fault-free 4-node startup with staggered
// power-on and reports the outcome.
func ExampleCluster_Run() {
	cfg := sim.DefaultConfig(4)
	cfg.NodeDelay = []int{1, 4, 7, 2}
	cluster, err := sim.New(cfg)
	if err != nil {
		log.Fatal(err)
	}
	synced := cluster.Run(80)
	fmt.Println("synchronized:", synced)
	fmt.Println("agreement:  ", cluster.Agreement())
	// Output:
	// synchronized: true
	// agreement:   true
}
