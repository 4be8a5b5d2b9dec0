package serve

import (
	"repro/internal/shard"
	"repro/internal/workload"
)

// mkJob compiles the derivation's shard job for one plan slice exactly
// as the spooled path's coordinator does (fleet.Run compiles d.mspec
// under the server's Exec), so identity tests can compare its digests
// with the legacy job builders.
func (d *derivation) mkJob(plan shard.Plan) (shard.Job, error) {
	return d.mspec.Compile(plan, workload.Exec{Workers: 2})
}
