package dse

import (
	"bytes"
	"reflect"
	"testing"

	"archexplorer/internal/obs"
	"archexplorer/internal/uarch"
)

// evalWithWorkers runs one fully journaled evaluation at the given DEG
// worker count and returns the evaluation plus the raw journal bytes.
func evalWithWorkers(t *testing.T, workers int, streamed bool) (*Evaluation, []byte) {
	t.Helper()
	ev := NewEvaluator(uarch.StandardSpace(), miniSuite(), 2000)
	ev.DEGWindow = 400
	ev.DEGWorkers = workers
	ev.DEGStream = streamed
	rec := obs.New()
	var buf bytes.Buffer
	rec.SetJournalWriter(&buf)
	ev.Obs = rec
	e, err := ev.Evaluate(ev.Space.Nearest(uarch.Baseline()), true)
	if err != nil {
		t.Fatal(err)
	}
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}
	return e, buf.Bytes()
}

// TestEvaluatorDEGWorkersDeterminism pins the tentpole's end-to-end
// guarantee at the evaluator level, for both the buffered and the streamed
// DEG path: the worker count changes neither any deterministic evaluation
// field nor a single journal result byte (obs.CanonicalJournal drops the
// measurements — timings and worker slots — which may legitimately vary).
// Telemetry may gauge the worker count, but the journal event stream must
// be invariant.
func TestEvaluatorDEGWorkersDeterminism(t *testing.T) {
	for _, streamed := range []bool{false, true} {
		name := "buffered"
		if streamed {
			name = "streamed"
		}
		t.Run(name, func(t *testing.T) {
			seqE, seqRaw := evalWithWorkers(t, 1, streamed)
			parE, parRaw := evalWithWorkers(t, 4, streamed)

			if seqE.PPA != parE.PPA {
				t.Fatalf("workers changed PPA: %+v vs %+v", seqE.PPA, parE.PPA)
			}
			if !reflect.DeepEqual(seqE.Report, parE.Report) {
				t.Fatalf("workers changed the bottleneck report:\nseq %+v\npar %+v", seqE.Report, parE.Report)
			}
			if !reflect.DeepEqual(seqE.PerWorkloadIPC, parE.PerWorkloadIPC) {
				t.Fatalf("workers changed per-workload IPC: %v vs %v", seqE.PerWorkloadIPC, parE.PerWorkloadIPC)
			}
			if seqE.DEGWindows != parE.DEGWindows || seqE.DEGPeakEdges != parE.DEGPeakEdges || seqE.DEGDrops != parE.DEGDrops {
				t.Fatalf("workers changed window stats: seq{%d %d %d} par{%d %d %d}",
					seqE.DEGWindows, seqE.DEGPeakEdges, seqE.DEGDrops,
					parE.DEGWindows, parE.DEGPeakEdges, parE.DEGDrops)
			}

			sameCanonicalJournal(t, seqRaw, parRaw)
		})
	}
}
