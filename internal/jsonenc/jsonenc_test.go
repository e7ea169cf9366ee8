package jsonenc

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"testing"
	"time"
)

func checkString(t *testing.T, s string) {
	t.Helper()
	want, err := json.Marshal(s)
	if err != nil {
		t.Fatalf("json.Marshal(%q): %v", s, err)
	}
	if got := AppendString(nil, s); !bytes.Equal(got, want) {
		t.Errorf("AppendString(%q) = %s, json.Marshal = %s", s, got, want)
	}
}

func checkFloat(t *testing.T, f float64) {
	t.Helper()
	want, err := json.Marshal(f)
	got, ok := AppendFloat([]byte("x"), f)
	if ok != (err == nil) {
		t.Fatalf("AppendFloat(%v) ok=%v, json.Marshal err=%v", f, ok, err)
	}
	if !ok {
		want = nil
	}
	if !bytes.Equal(got, append([]byte("x"), want...)) {
		t.Errorf("AppendFloat(%v) = %s, json.Marshal = %s", f, got[1:], want)
	}
}

func checkTime(t *testing.T, tm time.Time) {
	t.Helper()
	want, err := json.Marshal(tm)
	got, ok := AppendTime([]byte("x"), tm)
	if ok != (err == nil) {
		t.Fatalf("AppendTime(%v) ok=%v, json.Marshal err=%v", tm, ok, err)
	}
	if !ok {
		want = nil
	}
	if !bytes.Equal(got, append([]byte("x"), want...)) {
		t.Errorf("AppendTime(%v) = %s, json.Marshal = %s", tm, got[1:], want)
	}
}

func TestScalarsMatchEncodingJSON(t *testing.T) {
	for _, s := range []string{
		"", "plain", `quote " back \ slash`, "ctl \x00\x01\b\f\n\r\t\x1f\x7f", "<script>&amp;</script>",
		"sep \u2028 \u2029 end", "bad \xff utf8 \xc3", "truncated \xe2\x82", "日本語 ✓", "\xed\xa0\x80 surrogate",
	} {
		checkString(t, s)
	}
	for _, f := range []float64{
		0, math.Copysign(0, -1), 1, -1, 0.1, 1e-6, 9.99e-7, 1e-7, 1e20, 1e21, 1.5e21, 1e100, 1e-100, 5e-324,
		math.MaxFloat64, -math.MaxFloat64, 2.3480238899488035, 123456789.125, 1e-9, 1.25e-10,
		math.Inf(1), math.Inf(-1), math.NaN(),
	} {
		checkFloat(t, f)
	}
	est := time.FixedZone("EST", -5*3600)
	for _, tm := range []time.Time{
		{}, time.Unix(0, 0).UTC(), time.Unix(1628727297, 570925363).UTC(), time.Unix(1628727297, 570925363).In(est),
		time.Unix(1628727297, 500000000).UTC(), time.Unix(1628727297, 0).In(time.FixedZone("odd", 3600+1800+7)),
		time.Date(9999, 12, 31, 23, 59, 59, 999999999, time.UTC), time.Date(10000, 1, 1, 0, 0, 0, 0, time.UTC),
		time.Date(-1, 1, 1, 0, 0, 0, 0, time.UTC), time.Unix(1628727297, 0).In(time.FixedZone("far", 25*3600)),
		time.Unix(1628727297, 0).In(time.FixedZone("farwest", -24*3600)),
	} {
		checkTime(t, tm)
	}
}

// TestRandomScalarsMatchEncodingJSON is the seeded sweep: random byte
// strings (valid UTF-8 or not), floats drawn from raw bit patterns, and
// times across the representable range and odd zones.
func TestRandomScalarsMatchEncodingJSON(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 20000; i++ {
		b := make([]byte, rng.Intn(24))
		for j := range b {
			if rng.Intn(3) == 0 {
				b[j] = byte(rng.Intn(256))
			} else {
				b[j] = byte(0x20 + rng.Intn(0x5f))
			}
		}
		checkString(t, string(b))
		checkFloat(t, math.Float64frombits(rng.Uint64()))
		checkFloat(t, rng.NormFloat64()*math.Pow(10, float64(rng.Intn(60)-30)))
		zone := time.FixedZone("z", rng.Intn(60*3600)-30*3600)
		checkTime(t, time.Unix(rng.Int63n(1<<40)-(1<<39), rng.Int63n(1e9)).In(zone))
	}
}

func FuzzScalarsMatchEncodingJSON(f *testing.F) {
	f.Add("plain", 1.5, int64(1628727297), int64(570925363), 0)
	f.Add("\xff<\u2028>", 1e-7, int64(-62135596800), int64(0), -18000)
	f.Fuzz(func(t *testing.T, s string, v float64, sec, nsec int64, offset int) {
		checkString(t, s)
		checkFloat(t, v)
		checkTime(t, time.Unix(sec%(1<<40), nsec%1e9).In(time.FixedZone("z", offset%(48*3600))))
	})
}

func TestAppendAllocatesNothing(t *testing.T) {
	buf := make([]byte, 0, 256)
	tm := time.Unix(1628727297, 570925363).UTC()
	if n := testing.AllocsPerRun(100, func() {
		b := AppendString(buf[:0], "TCP-a2.tuyaus.com-87 (silent) <é>")
		b, _ = AppendFloat(b, 2.3480238899488035)
		b, _ = AppendTime(b, tm)
		buf = b[:0]
	}); n != 0 {
		t.Errorf("append path allocates %v times per line", n)
	}
}
