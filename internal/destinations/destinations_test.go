package destinations

import "testing"

func TestOrgLookup(t *testing.T) {
	cases := map[string]string{
		"device-metrics-us.amazon.com":     "Amazon",
		"alexa.na.gateway.devices.a2z.com": "Amazon",
		"devs.tplinkcloud.com":             "TP-Link",
		"a2.tuyaus.com":                    "Tuya",
		"diagnostics.meethue.com":          "Philips",
		"unknown-host.example.org":         "",
		"amazon.com":                       "Amazon",
		"AMAZON.COM":                       "Amazon", // case-insensitive
		"amazon.com.":                      "Amazon", // trailing dot
	}
	for domain, want := range cases {
		if got := Org(domain); got != want {
			t.Errorf("Org(%q) = %q, want %q", domain, got, want)
		}
	}
	// Suffix matching must not match partial labels.
	if Org("notamazon.com") != "" {
		t.Error("notamazon.com should not match amazon.com")
	}
}

func TestClassifyFirstParty(t *testing.T) {
	cases := []struct {
		vendor, domain string
		want           Party
	}{
		{"Amazon", "device-metrics-us.amazon.com", First},
		{"TP-Link", "devs.tplinkcloud.com", First},
		{"Amazon", "api.ring.com", First},   // affiliate
		{"Ring", "api.amazon.com", First},   // affiliate, symmetric
		{"Google", "api.amazon.com", Third}, // other vendor's cloud
		{"Tuya", "a2.tuyaus.com", First},
	}
	for _, c := range cases {
		if got := Classify(c.vendor, c.domain); got != c.want {
			t.Errorf("Classify(%q, %q) = %v, want %v", c.vendor, c.domain, got, c.want)
		}
	}
}

func TestClassifySupportParty(t *testing.T) {
	for _, domain := range []string{
		"a1x3c4.iot.us-east-1.amazonaws.com",
		"d1f0a.cloudfront.net",
		"e5a1.akamaiedge.net",
		"0.pool.ntp.org",
		"time.nist.gov",
		"dns1.testbed.neu.edu",
	} {
		if got := Classify("TP-Link", domain); got != Support {
			t.Errorf("Classify(TP-Link, %q) = %v, want Support", domain, got)
		}
	}
}

func TestClassifyThirdParty(t *testing.T) {
	for _, domain := range []string{
		"metrics.tplink-analytics.com", // unknown org
		"collect.doubleclick-iot.net",
		"fw.board-vendor.cn",
	} {
		if got := Classify("TP-Link", domain); got != Third {
			t.Errorf("Classify(TP-Link, %q) = %v, want Third", domain, got)
		}
	}
	// A known org that is neither vendor nor affiliate is third party.
	if got := Classify("Tuya", "api.wyzecam.com"); got != Third {
		t.Errorf("cross-vendor = %v, want Third", got)
	}
}

func TestPartyString(t *testing.T) {
	if First.String() != "First" || Support.String() != "Support" || Third.String() != "Third" {
		t.Error("party names wrong")
	}
}
