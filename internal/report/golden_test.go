package report

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/synth"
)

// goldenGraphDigests pins the repro/v1 wire values (ResultWire.Value, the
// marshalled core result) of the §5 connectivity experiments at small
// scale for two fixed seeds. Table 2 carries every graph's exact
// diameter, component count and largest-component share; Figure 9
// carries every robustness curve as float64s, so any change to the
// graph layer's algorithms that moves a diameter or a single bit of a
// curve fails here. If an intentional result change lands, rerun
// TestGoldenGraphExperiments — the failure message prints the new
// digest — and update the constant in the same change.
var goldenGraphDigests = map[string]string{
	"seed=1/table2": "5439e82c4bbd608666801018d730461f5184bf26a406bfef1c74d8adfa2f867b",
	"seed=1/fig9":   "9a86af358ce3a5e56e90f5e31de52e8abbf831f29455e6966bb1e2a663d2127a",
	"seed=2/table2": "1a5ca16bd1046d6472bcc7b81ac3b37b21646e019407a2ea384d8757a5d31c41",
	"seed=2/fig9":   "5e1c00a329c272d3d8fc60d756a5b9ba94b1573d58691c36132e365b56c586c8",
}

func goldenStudy(seed uint64) *core.Study {
	sc := synth.ScaleSmall
	return core.NewStudy(core.Config{
		Seed:           seed,
		Entities:       sc.Entities,
		DirectoryHosts: sc.DirectoryHosts,
		CatalogN:       sc.Entities,
	})
}

func TestGoldenGraphExperiments(t *testing.T) {
	for _, seed := range []uint64{1, 2} {
		rep, err := goldenStudy(seed).RunExperiments(context.Background(), []string{"table2", "fig9"}, 2)
		if err != nil {
			t.Fatal(err)
		}
		if len(rep.Results) != 2 {
			t.Fatalf("seed %d: %d results, want 2", seed, len(rep.Results))
		}
		for _, res := range rep.Results {
			rw, err := EncodeResult(res)
			if err != nil {
				t.Fatal(err)
			}
			sum := sha256.Sum256(rw.Value)
			key := fmt.Sprintf("seed=%d/%s", seed, res.ID)
			if got, want := hex.EncodeToString(sum[:]), goldenGraphDigests[key]; got != want {
				t.Errorf("%s wire digest = %s, want %s", key, got, want)
			}
		}
	}
}
