// Package destinations classifies the parties behind flow destinations,
// reproducing the paper's event-destination analysis (§6.1): a destination
// is first party when its organization is the device's manufacturer or an
// affiliate, support party when it is a cloud/CDN provider, and third
// party otherwise.
//
// The paper derives organizations from WHOIS records; offline, the
// equivalent knowledge is an embedded organization table over the
// simulated domain universe plus the same common-sense matching rules
// (e.g. "a2z.com" belongs to Amazon).
package destinations

import "strings"

// Party is the destination's relationship to the device vendor.
type Party uint8

// Party values.
const (
	First Party = iota
	Support
	Third
)

// String names the party class.
func (p Party) String() string {
	switch p {
	case First:
		return "First"
	case Support:
		return "Support"
	default:
		return "Third"
	}
}

// orgSuffixes maps domain suffixes to organization names. Longest suffix
// wins. This plays the role of the paper's WHOIS lookups.
var orgSuffixes = map[string]string{
	"amazon.com":              "Amazon",
	"amazonalexa.com":         "Amazon",
	"amazoncrl.com":           "Amazon",
	"a2z.com":                 "Amazon",
	"amazon-dss.com":          "Amazon",
	"fireoscaptiveportal.com": "Amazon",
	"ssl-images-amazon.com":   "Amazon",
	"google.com":              "Google",
	"gstatic.com":             "Google",
	"googleapis.com":          "Google",
	"googleusercontent.com":   "Google",
	"apple.com":               "Apple",
	"aaplimg.com":             "Apple",
	"icloud.com":              "Apple",
	"tplinkcloud.com":         "TP-Link",
	"tplinkra.com":            "TP-Link",
	"ring.com":                "Ring",
	"tuyaus.com":              "Tuya",
	"mydlink.com":             "D-Link",
	"xbcs.net":                "Belkin",
	"wemo2.com":               "Belkin",
	"xwemo.com":               "Belkin",
	"meethue.com":             "Philips",
	"smartthings.com":         "Samsung",
	"samsungiotcloud.com":     "Samsung",
	"samsung.com":             "Samsung",
	"samsungqbe.com":          "Samsung",
	"wyzecam.com":             "Wyze",
	"govee.com":               "Govee",
	"meross.com":              "Meross",
	"keyco.kr":                "Keyco",
	"magichue.net":            "Magichome",
	"thermopro.io":            "Thermopro",
	"xmcsrv.net":              "iCSee",
	"lefunsmart.com":          "LeFun",
	"microseven.com":          "Microseven",
	"ubell-tech.com":          "Ubell",
	"wansview.com":            "Wansview",
	"xiaoyi.com":              "Yi",
	"aqara.cn":                "Aqara",
	"ikea.net":                "IKEA",
	"switch-bot.com":          "SwitchBot",
	"wink.com":                "Wink",
	"behmor.com":              "Behmor",
	"smarter.am":              "Smarter",
	"geappliances.com":        "GE",
	"anovaculinary.com":       "Anova",
	"neu.edu":                 "NEU",
}

// supportOrgsSuffixes are cloud/CDN providers: support party for everyone.
var supportSuffixes = []string{
	"amazonaws.com", "cloudfront.net", "akamaiedge.net", "fastly.net",
	"azure-devices.net", "emqx-cloud.io", "eclipse-proj.org",
	"windows.com", "cloudflare.com", "aliyun.com",
}

// affiliates lists vendor → additional organizations considered first
// party (e.g. Nest devices are Google's).
var affiliates = map[string][]string{
	"Amazon": {"Ring"}, // Amazon owns Ring
	"Ring":   {"Amazon"},
}

// infraOrgs are destinations that are first-party-ish for nobody and
// support for everyone (shared internet infrastructure: NTP pools, local
// resolvers).
var infraSuffixes = []string{"pool.ntp.org", "ntp.org.cn", "nist.gov", "neu.edu", "openwrt.pool.ntp.org"}

// Org returns the organization name for a domain, or "" if unknown.
func Org(domain string) string {
	domain = strings.ToLower(strings.TrimSuffix(domain, "."))
	best := ""
	bestLen := 0
	for suffix, org := range orgSuffixes {
		if (domain == suffix || strings.HasSuffix(domain, "."+suffix)) && len(suffix) > bestLen {
			best = org
			bestLen = len(suffix)
		}
	}
	return best
}

// Classify determines the party of a destination domain for a device made
// by the given vendor. Unknown organizations are third party, as in the
// paper.
func Classify(vendor, domain string) Party {
	domain = strings.ToLower(strings.TrimSuffix(domain, "."))
	for _, s := range infraSuffixes {
		if domain == s || strings.HasSuffix(domain, "."+s) {
			return Support
		}
	}
	for _, s := range supportSuffixes {
		if domain == s || strings.HasSuffix(domain, "."+s) {
			return Support
		}
	}
	org := Org(domain)
	if org == "" {
		return Third
	}
	if org == vendor {
		return First
	}
	for _, aff := range affiliates[vendor] {
		if org == aff {
			return First
		}
	}
	return Third
}
