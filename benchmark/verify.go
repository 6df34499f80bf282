package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"

	"repro/internal/sqldb"
	"repro/internal/sqldb/engine"
	"repro/internal/sqldb/storage"
)

// golden.json pins the only thing a later change may never alter: the
// bytes the 150 pages render. Counters and virtual times are reported, not
// pinned, so a change that legitimately improves them is not blocked.
//
//go:embed golden.json
var goldenJSON []byte

type golden struct {
	Pages       int    `json:"pages"`
	PagesSHA256 string `json:"pages_sha256"`
}

// pagesDigest hashes every page's name and HTML in canonical page order,
// so the value does not depend on the seed or the workload.
func pagesDigest(pages []pageRef, html []string) string {
	h := sha256.New()
	for i, p := range pages {
		fmt.Fprintf(h, "%d/%s\x00%d\x00", p.app, p.name, len(html[i]))
		io.WriteString(h, html[i])
	}
	return hex.EncodeToString(h.Sum(nil))
}

func checkGolden(pages []pageRef, html []string) error {
	var g golden
	if err := json.Unmarshal(goldenJSON, &g); err != nil {
		return fmt.Errorf("golden.json: %w", err)
	}
	if len(pages) != g.Pages {
		return fmt.Errorf("golden: %d pages, want %d", len(pages), g.Pages)
	}
	if got := pagesDigest(pages, html); got != g.PagesSHA256 {
		return fmt.Errorf("golden: page bytes hash %s, want %s", got, g.PagesSHA256)
	}
	return nil
}

// dbDigest hashes every live row of every table, tables by name and rows
// by id. Two databases that executed the same statement sequence digest
// equal.
func dbDigest(db *engine.DB) string {
	st := db.Store()
	st.Lock()
	defer st.Unlock()
	h := sha256.New()
	for _, name := range st.TableNames() {
		t, _ := st.Table(name)
		fmt.Fprintf(h, "table %s\n", name)
		t.Scan(func(_ storage.RowID, r storage.Row) bool {
			for _, v := range r {
				io.WriteString(h, sqldb.Format(v))
				h.Write([]byte{0x1f})
			}
			h.Write([]byte{'\n'})
			return true
		})
	}
	return hex.EncodeToString(h.Sum(nil))
}
