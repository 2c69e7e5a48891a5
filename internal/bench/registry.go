package bench

import (
	"fmt"
	"sort"
)

// Experiment is one runnable experiment.
type Experiment struct {
	ID    string
	Title string
	Run   func(*Runner) (*Table, error)
}

// Experiments lists every experiment in presentation order: first the
// paper's figures and table, then the ablations.
func Experiments() []Experiment {
	return []Experiment{
		{"fig3a", "Build: index building time", (*Runner).Fig3a},
		{"fig3b", "Build: ADS building time", (*Runner).Fig3b},
		{"fig4a", "Build: index storage", (*Runner).Fig4a},
		{"fig4b", "Build: ADS storage", (*Runner).Fig4b},
		{"fig5a", "Search: equality result generation time", (*Runner).Fig5a},
		{"fig5b", "Search: equality VO generation time", (*Runner).Fig5b},
		{"fig5c", "Search: order result generation time", (*Runner).Fig5c},
		{"fig5d", "Search: order VO generation time", (*Runner).Fig5d},
		{"fig6a", "Search overhead: tokens per order query", (*Runner).Fig6a},
		{"fig6b", "Search overhead: equality result size", (*Runner).Fig6b},
		{"fig6c", "Search overhead: order result size", (*Runner).Fig6c},
		{"fig6d", "Search overhead: VO size", (*Runner).Fig6d},
		{"fig7a", "Insert: index update time", (*Runner).Fig7a},
		{"fig7b", "Insert: ADS update time", (*Runner).Fig7b},
		{"table2", "Gas cost of smart contract", (*Runner).Table2},
		{"ablation-ore", "SORE vs CLWW ORE vs OPE", (*Runner).AblationORE},
		{"ablation-traversal", "Order search vs keyword traversal", (*Runner).AblationTraversal},
		{"ablation-range-strategy", "Range strategies: intersection vs prefix cover", (*Runner).AblationRangeStrategy},
		{"ablation-accumulator", "Accumulator update strategies", (*Runner).AblationAccumulator},
		{"ablation-witness", "Witness generation strategies", (*Runner).AblationWitness},
		{"ablation-fastpath", "Big-number fast paths: aggregation, comb, witness tree", (*Runner).AblationFastpath},
		{"ablation-vo-merkle", "Accumulator VO vs Merkle proof", (*Runner).AblationVOvsMerkle},
		{"ablation-durability", "WAL fsync overhead & cold-start recovery", (*Runner).AblationDurability},
		{"ablation-observability", "Telemetry layer: windowed quantiles & overhead", (*Runner).AblationObservability},
		{"ablation-audit", "Audit ledger: journaling overhead on search", (*Runner).AblationAudit},
		{"ablation-shards", "Sharded cloud: 1 vs 3 shards behind the router", (*Runner).AblationShards},
	}
}

// Find resolves an experiment by ID.
func Find(id string) (Experiment, error) {
	for _, e := range Experiments() {
		if e.ID == id {
			return e, nil
		}
	}
	ids := make([]string, 0, len(Experiments()))
	for _, e := range Experiments() {
		ids = append(ids, e.ID)
	}
	sort.Strings(ids)
	return Experiment{}, fmt.Errorf("bench: unknown experiment %q (known: %v)", id, ids)
}
