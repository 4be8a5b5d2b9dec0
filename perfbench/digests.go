package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"

	"repro/internal/pareto"
	"repro/internal/workload"
)

// recordedJSON holds the sha256 of the canonical encoding of every curve
// the benchmark produces, recorded from the program as it stood when the
// benchmark was defined (`perfbench -record`). Every run checks its
// curves against it: the byte-identity invariant of the curves.
//
//go:embed digests.json
var recordedJSON []byte

func recorded() (map[string]string, error) {
	var m map[string]string
	if err := json.Unmarshal(recordedJSON, &m); err != nil {
		return nil, fmt.Errorf("decoding recorded digests: %w", err)
	}
	return m, nil
}

// resultDigest hashes the canonical encodings of a result's curve and,
// for segmentation studies, of every per-strategy curve.
func resultDigest(c *pareto.Curve, segs []workload.Segment) string {
	h := sha256.New()
	io.WriteString(h, c.Canonical())
	for _, s := range segs {
		io.WriteString(h, "\n"+s.Label+" "+s.Curve.Canonical())
	}
	return hex.EncodeToString(h.Sum(nil))
}

// record derives every input in-process and writes their digests to path.
func record(path string) error {
	all := append(deriveCorpus(false), deriveCorpus(true)...)
	all = append(all, catalog()...)
	all = append(all, coldSpec(false), coldSpec(true))
	out := map[string]string{}
	for _, in := range all {
		r, err := in.spec.Run(bgctx, workload.Exec{})
		if err != nil {
			return fmt.Errorf("%s: %w", in.name, err)
		}
		if prev, dup := out[in.name]; dup && prev != resultDigest(r.Curve, r.Segments) {
			return fmt.Errorf("input name %s used for two different curves", in.name)
		}
		out[in.name] = resultDigest(r.Curve, r.Segments)
	}
	data, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
