package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"

	"behaviot/internal/modelstore"
)

// runVerifyStore implements -verify-store: walk every store under the
// -store path (a daemon root with tenants/<id>/ namespaces and the
// model/ store), validate every generation's full delta chain, and
// print a per-generation report. The exit code is the
// durability verdict: 0 when every store's newest chain materializes
// (what a launch or -resume would load), nonzero when any newest chain
// is broken — operators wire this into post-crash health checks before
// trusting a restart.
func runVerifyStore(root string, w io.Writer) int {
	if _, err := os.Stat(root); err != nil {
		fmt.Fprintf(w, "behaviotd: verify-store: %v\n", err)
		return 1
	}

	type target struct{ label, dir string }
	var targets []target
	// A daemon root namespaces checkpoints under tenants/<id>/ and keeps
	// the trained model under model/.
	if entries, err := os.ReadDir(filepath.Join(root, "tenants")); err == nil {
		for _, e := range entries {
			if e.IsDir() && modelstore.ValidTenantID(e.Name()) {
				targets = append(targets, target{
					label: "tenant " + e.Name(),
					dir:   filepath.Join(root, "tenants", e.Name()),
				})
			}
		}
		sort.Slice(targets, func(i, j int) bool { return targets[i].dir < targets[j].dir })
		if len(targets) == 0 {
			fmt.Fprintf(w, "behaviotd: verify-store: %s has a tenants/ namespace but no tenant stores\n", root)
			return 1
		}
	}
	if st, err := os.Stat(filepath.Join(root, modelDir)); err == nil && st.IsDir() {
		targets = append(targets, target{label: "model", dir: filepath.Join(root, modelDir)})
	}
	if len(targets) == 0 {
		fmt.Fprintf(w, "behaviotd: verify-store: %s holds no behaviotd store (no tenants/ or model/)\n", root)
		return 1
	}

	broken := 0
	for _, tg := range targets {
		s, err := modelstore.Open(tg.dir, modelstore.Options{})
		if err != nil {
			fmt.Fprintf(w, "%s: %v\n", tg.label, err)
			broken++
			continue
		}
		report, err := s.Report()
		if err != nil {
			fmt.Fprintf(w, "%s: %v\n", tg.label, err)
			broken++
			continue
		}
		if len(report) == 0 {
			fmt.Fprintf(w, "%s %s: empty (no generations)\n", tg.label, tg.dir)
			continue
		}
		newest := report[len(report)-1]
		verdict := "newest chain intact"
		if !newest.Intact {
			verdict = "NEWEST CHAIN BROKEN"
			broken++
		}
		fmt.Fprintf(w, "%s %s: %d generations, %s\n", tg.label, tg.dir, len(report), verdict)
		for _, g := range report {
			line := fmt.Sprintf("  gen %-4d %-5s", g.Generation, g.Kind)
			if g.Kind == modelstore.KindDelta {
				line += fmt.Sprintf(" parent=%-4d deltas=%-2d", g.Parent, g.Deltas)
			} else {
				line += fmt.Sprintf(" %-21s", "")
			}
			line += fmt.Sprintf(" bytes=%-8d", g.Bytes)
			if g.Intact {
				line += " ok"
			} else {
				line += fmt.Sprintf(" BROKEN: %v", g.Err)
			}
			if g.Fingerprint != "" {
				line += fmt.Sprintf("  fp=%q", g.Fingerprint)
			}
			fmt.Fprintln(w, line)
		}
	}
	if broken > 0 {
		fmt.Fprintf(w, "verify-store: %d of %d stores unrecoverable at their newest generation\n", broken, len(targets))
		return 1
	}
	fmt.Fprintf(w, "verify-store: all %d stores recoverable\n", len(targets))
	return 0
}
