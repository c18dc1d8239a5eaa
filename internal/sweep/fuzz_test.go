package sweep

import (
	"bytes"
	"testing"
)

// FuzzCellJSONRoundTrip pins the cell interchange format: for a cell
// built from generated typed params (int, int64, float64 — -0,
// subnormals, ±MaxFloat64 and non-finite values included — and
// arbitrary strings) and generated records, decoding CellJSON's bytes
// and encoding them again reproduces them exactly. The job store's
// journal replays cells this way, and -set values become params that
// must keep their identity through it.
func FuzzCellJSONRoundTrip(f *testing.F) {
	f.Add(0, int64(0), 1.0, "fig6", "ratio", 2.5, uint64(0), "", false)
	f.Fuzz(func(t *testing.T, n int, seed int64, alpha float64, str, key string, val float64, big uint64, text string, failed bool) {
		c := CellResult{
			Seq:        n,
			Experiment: str,
			Cell: Params{Index: int(seed), Values: []AxisValue{
				{"n", n}, {"seed", seed}, {"alpha", alpha}, {key, str},
			}},
			Records: []Record{
				R(key, val, "big", big, "ok", failed, "text", text, "none", nil),
				R("alpha", alpha, "neg", -val),
			},
		}
		if failed {
			c.Err = text
			c.Records = nil
		}
		in := CellJSON(c)
		back, err := DecodeCellJSON(in)
		if err != nil {
			t.Fatalf("decode %s: %v", in, err)
		}
		if out := CellJSON(back); !bytes.Equal(out, in) {
			t.Fatalf("round trip differs:\n in: %s\nout: %s", in, out)
		}
	})
}
