package modelstore

import (
	"fmt"
	"path/filepath"
)

// FileTenant is the canonical snapshot file name for per-tenant fleet
// state (ingest counters, event rings, event-log high-water mark).
const FileTenant = "tenant.snap"

// tenantsSubdir is where OpenTenant namespaces per-tenant stores under
// a fleet root: <root>/tenants/<id>/gen-NNNNNN/...
const tenantsSubdir = "tenants"

// ValidTenantID reports whether id is safe to use as a tenant
// identifier: 1–64 characters from [A-Za-z0-9._-], not starting with a
// dot. The character set keeps IDs usable verbatim as directory names,
// metric label values, and wire-protocol tokens; the no-leading-dot
// rule keeps them out of the store's hidden/staging namespace.
func ValidTenantID(id string) bool {
	if len(id) == 0 || len(id) > 64 || id[0] == '.' {
		return false
	}
	for i := 0; i < len(id); i++ {
		c := id[i]
		switch {
		case c >= 'a' && c <= 'z':
		case c >= 'A' && c <= 'Z':
		case c >= '0' && c <= '9':
		case c == '.' || c == '_' || c == '-':
		default:
			return false
		}
	}
	return true
}

// OpenTenant opens (creating if needed) a tenant's namespaced store
// under a fleet store root: <root>/tenants/<id>/. The store itself is
// an ordinary generation-versioned store — tenancy lives entirely in
// the path, so snapshot formats, fingerprints and the Load/Write
// protocol are those of any other store.
func OpenTenant(root, id string, opts Options) (*Store, error) {
	if !ValidTenantID(id) {
		return nil, fmt.Errorf("modelstore: invalid tenant id %q", id)
	}
	return Open(filepath.Join(root, tenantsSubdir, id), opts)
}
