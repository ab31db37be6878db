package main

import (
	"fmt"
	"strings"

	"quicsand"
	"quicsand/internal/capture"
	"quicsand/internal/detect"
	"quicsand/internal/oracle"
	"quicsand/internal/telemetry"
)

// expectations are the analytic oracle's predictions for one run's
// configuration, computed once, outside every timed window.
type expectations struct {
	analysis *oracle.Expectation
	alerts   *oracle.AlertExpectation
}

func expect(w workload, cfg quicsand.Config) (*expectations, error) {
	exp, err := quicsand.Expect(cfg)
	if err != nil {
		return nil, fmt.Errorf("oracle: %w", err)
	}
	alerts, err := quicsand.ExpectAlerts(cfg, w.detectConfig())
	if err != nil {
		return nil, fmt.Errorf("alert oracle: %w", err)
	}
	return &expectations{analysis: exp, alerts: alerts}, nil
}

// violations renders the failed rows of an oracle evaluation.
func violations(rs []oracle.Result) error {
	if oracle.CountViolations(rs) == 0 {
		return nil
	}
	var b strings.Builder
	for _, r := range rs {
		if !r.OK {
			fmt.Fprintf(&b, "\n  %s: want %s, got %s", r.Name, r.Want, r.Got)
		}
	}
	return fmt.Errorf("%d oracle violations:%s", oracle.CountViolations(rs), b.String())
}

// checkAnalysis holds a final Analysis to the oracle at zero tolerance.
func checkAnalysis(exp *oracle.Expectation, a *quicsand.Analysis) error {
	return violations(oracle.Evaluate(exp, a.OracleObserved()))
}

// checkAlerts holds the merged alert stream of every checkpoint to the
// ledger-derived alert bounds. A scenario that schedules clusters dense
// enough to guarantee an alert must produce at least one, or the
// containment checks would pass vacuously.
func checkAlerts(ae *oracle.AlertExpectation, alerts []detect.Alert) error {
	if ae.Guaranteed > 0 && len(alerts) == 0 {
		return fmt.Errorf("no alerts although %d clusters guarantee one", ae.Guaranteed)
	}
	return violations(oracle.CheckAlerts(ae, alerts))
}

// checkIngest requires a batch replay to have ingested the way the
// CLI's replay does on these inputs: a QSND source, decoded on the
// shards after the scatter. A source hidden behind a wrapper falls back
// to the sequential inline decode, and the run would time a path
// production does not take.
func checkIngest(a *quicsand.Analysis) error {
	ing := a.Telemetry.Ingest
	if ing.Format != capture.FormatQSND.String() || ing.DecodePath != "shard" {
		return fmt.Errorf("replay ingested format %q on decode path %q, want %q on %q",
			ing.Format, ing.DecodePath, capture.FormatQSND, "shard")
	}
	return nil
}

// lost counts input records the analysis does not account for, plus
// records the decoder dropped: the run's failure count.
func lost(records uint64, a *quicsand.Analysis) uint64 {
	var n uint64
	if a.Telescope.Total < records {
		n = records - a.Telescope.Total
	}
	return n + a.Telemetry.Ingest.DecodeDrops
}

// streamCounters is the part of Telemetry.Stream both drivers compute.
// StreamReplay reads its source directly rather than through the
// scatter, so the replay-ingest block (records, drops, salvage) exists
// only on the batch side; lost() covers ingest for both.
func streamCounters(a *quicsand.Analysis) telemetry.Stream {
	s := a.Telemetry.Stream()
	s.IngestRecords, s.DecodeDrops = 0, 0
	s.CorruptRecords, s.ResyncScans, s.SalvagedBytes, s.SalvageMaxLost = 0, 0, 0, 0
	return s
}

// batchReference is what the stream≡batch gate compares a stream
// workload's final analysis against: the batch replay of the same
// input, kept without the Analysis itself so it does not sit in the
// heap the timed window measures.
type batchReference struct {
	counters telemetry.Stream
	headline string
}

// referenceReplay runs the batch driver once over the input, untimed.
func referenceReplay(w workload, cfg quicsand.Config, path string) (*batchReference, error) {
	batch := w
	batch.stream = false
	r, err := runDriver(batch, cfg, path)
	if err != nil {
		return nil, err
	}
	if err := checkIngest(r.final); err != nil {
		return nil, fmt.Errorf("batch reference: %w", err)
	}
	return &batchReference{counters: streamCounters(r.final), headline: r.final.Headline()}, nil
}

// check requires a's stream-derived counters and headline results to
// equal the batch replay's.
func (b *batchReference) check(a *quicsand.Analysis) error {
	if c, h := streamCounters(a), a.Headline(); c != b.counters || h != b.headline {
		return fmt.Errorf("final analysis differs from the batch replay of the same input:\n  batch  %+v\n  stream %+v\n--- batch ---\n%s--- stream ---\n%s",
			b.counters, c, b.headline, h)
	}
	return nil
}
