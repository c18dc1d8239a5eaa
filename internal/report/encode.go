package report

import (
	"encoding/json"
	"math"
	"strconv"
	"strings"
)

// JSONValue renders v as one deterministic JSON token. Floats use the
// shortest round-tripping decimal form; non-finite floats (which JSON
// cannot represent as numbers) become the strings "inf", "-inf", "nan",
// matching Format. Strings are JSON-escaped; other types fall back to
// their %v rendering, escaped as a string.
func JSONValue(v any) string {
	switch x := v.(type) {
	case float64:
		return jsonFloat(x)
	case float32:
		return jsonFloat(float64(x))
	case int:
		return strconv.Itoa(x)
	case int64:
		return strconv.FormatInt(x, 10)
	case uint64:
		return strconv.FormatUint(x, 10)
	case bool:
		return strconv.FormatBool(x)
	case string:
		return jsonString(x)
	case nil:
		return "null"
	default:
		return jsonString(Format(v))
	}
}

func jsonFloat(x float64) string {
	switch {
	case math.IsInf(x, 1):
		return `"inf"`
	case math.IsInf(x, -1):
		return `"-inf"`
	case math.IsNaN(x):
		return `"nan"`
	default:
		return strconv.FormatFloat(x, 'g', -1, 64)
	}
}

// jsonString replaces invalid UTF-8 with U+FFFD itself: json.Marshal
// would write the escape \ufffd, which decodes to U+FFFD and re-encodes
// as its raw bytes, so the token would not survive a round trip.
func jsonString(s string) string {
	b, err := json.Marshal(strings.ToValidUTF8(s, "\uFFFD"))
	if err != nil {
		// json.Marshal of a string cannot fail.
		panic("report: unreachable: " + err.Error())
	}
	return string(b)
}

// Precise renders v at full precision for CSV cells: like JSONValue but
// without quoting (the CSV writer handles escaping).
func Precise(v any) string {
	switch x := v.(type) {
	case float64:
		return preciseFloat(x)
	case float32:
		return preciseFloat(float64(x))
	case string:
		return x
	default:
		return Format(v)
	}
}

func preciseFloat(x float64) string {
	switch {
	case math.IsInf(x, 1):
		return "inf"
	case math.IsInf(x, -1):
		return "-inf"
	case math.IsNaN(x):
		return "nan"
	default:
		return strconv.FormatFloat(x, 'g', -1, 64)
	}
}
