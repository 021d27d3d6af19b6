package experiments

import (
	"testing"

	"repro/internal/cloud"
	"repro/internal/fleet"
	"repro/internal/model"
)

// TestKeysArePinned holds scenario and fleet cache keys to literal
// strings. The planner's cache lines and every seed derived from a key
// depend on these bytes, so a refactor of how defaults resolve must
// leave each one unchanged. The defaulted axes (elastic, rev, prov,
// sched) appear resolved, and explicit defaults key like omitted ones.
func TestKeysArePinned(t *testing.T) {
	base := Scenario{Model: model.ResNet15(), GPU: model.P100, Region: cloud.USWest1, Tier: cloud.Transient, Workers: 4}
	with := func(mut func(*Scenario)) Scenario {
		sc := base
		mut(&sc)
		return sc
	}
	explicitDefaults := with(func(s *Scenario) { s.Elastic, s.RevModel, s.Provider = "static", "table5", "gce" })
	surge := with(func(s *Scenario) { s.Elastic = "surge" })
	w := fleet.WorkloadSpec{Jobs: 4, RatePerHour: 2, StepsPerWorker: 100}
	for _, c := range []struct {
		name, got, want string
	}{
		{"scenario, default axes omitted", base.Key(),
			"model=ResNet-15|gpu=P100|region=us-west1|tier=transient|workers=4|cluster=4xP100|elastic=static|rev=table5|prov=gce"},
		{"scenario, default axes explicit", explicitDefaults.Key(),
			"model=ResNet-15|gpu=P100|region=us-west1|tier=transient|workers=4|cluster=4xP100|elastic=static|rev=table5|prov=gce"},
		{"scenario, aws", with(func(s *Scenario) { s.Provider = "aws" }).Key(),
			"model=ResNet-15|gpu=P100|region=us-west1|tier=transient|workers=4|cluster=4xP100|elastic=static|rev=calm-weibull|prov=aws"},
		{"scenario, aws under weibull", with(func(s *Scenario) { s.Provider, s.RevModel = "aws", "weibull" }).Key(),
			"model=ResNet-15|gpu=P100|region=us-west1|tier=transient|workers=4|cluster=4xP100|elastic=static|rev=weibull|prov=aws"},
		{"scenario, weibull", with(func(s *Scenario) { s.RevModel = "weibull" }).Key(),
			"model=ResNet-15|gpu=P100|region=us-west1|tier=transient|workers=4|cluster=4xP100|elastic=static|rev=weibull|prov=gce"},
		{"scenario, surge", surge.Key(),
			"model=ResNet-15|gpu=P100|region=us-west1|tier=transient|workers=4|cluster=4xP100|elastic=surge|rev=table5|prov=gce"},
		{"scenario, mixed cluster", with(func(s *Scenario) {
			s.Cluster = model.ClusterSpec{{GPU: model.P100, Count: 2}, {GPU: model.K80, Count: 2}}
		}).Key(),
			"model=ResNet-15|gpu=K80|region=us-west1|tier=transient|workers=4|cluster=2xK80+2xP100|elastic=static|rev=table5|prov=gce"},
		{"scenario, unknown provider", with(func(s *Scenario) { s.Provider = "no-such-market" }).Key(),
			"model=ResNet-15|gpu=P100|region=us-west1|tier=transient|workers=4|cluster=4xP100|elastic=static|rev=table5|prov=no-such-market"},
		{"label, default axes explicit", explicitDefaults.Label(), "4×P100 us-west1 transient rev=table5 prov=gce"},
		{"label, surge", surge.Label(), "4×P100 us-west1 transient surge"},
		{"fleet, zero config", fleet.Config{}.Key(),
			"fleet|sched=fifo|prov=gce|rev=table5|arrival=poisson|rate=0|jobs=0|spw=0|ic=1000|cap=inf|elastic=static|horizon=168|wseed=0"},
		{"fleet, defaults omitted", fleet.Config{Workload: w}.Key(),
			"fleet|sched=fifo|prov=gce|rev=table5|arrival=poisson|rate=2|jobs=4|spw=100|ic=1000|cap=inf|elastic=static|horizon=168|wseed=0"},
		{"fleet, aws+gce", fleet.Config{Workload: w, Providers: []string{"aws", "gce"}}.Key(),
			"fleet|sched=fifo|prov=aws+gce|rev=calm-weibull|arrival=poisson|rate=2|jobs=4|spw=100|ic=1000|cap=inf|elastic=static|horizon=168|wseed=0"},
		{"fleet, empty market entry", fleet.Config{Workload: w, Providers: []string{"", "aws"}}.Key(),
			"fleet|sched=fifo|prov=gce+aws|rev=table5|arrival=poisson|rate=2|jobs=4|spw=100|ic=1000|cap=inf|elastic=static|horizon=168|wseed=0"},
		{"fleet, unknown market", fleet.Config{Workload: w, Providers: []string{"no-such-market"}}.Key(),
			"fleet|sched=fifo|prov=no-such-market|rev=table5|arrival=poisson|rate=2|jobs=4|spw=100|ic=1000|cap=inf|elastic=static|horizon=168|wseed=0"},
		{"fleet, every axis named", fleet.Config{
			Workload:  fleet.WorkloadSpec{Jobs: 8, RatePerHour: 4, StepsPerWorker: 2000, Arrival: fleet.ArrivalBursty, CheckpointInterval: 500},
			Scheduler: "deadline-aware", RevModel: "weibull", Providers: []string{"gce", "aws"},
			Capacity: cloud.Capacity{{Region: cloud.USCentral1, GPU: model.V100}: 2}, Elastic: "surge",
			HorizonHours: 24, WorkloadSeed: 7,
		}.Key(),
			"fleet|sched=deadline-aware|prov=gce+aws|rev=weibull|arrival=bursty|rate=4|jobs=8|spw=2000|ic=500|cap=us-central1/V100:2|elastic=surge|horizon=24|wseed=7"},
	} {
		if c.got != c.want {
			t.Errorf("%s:\n got %q\nwant %q", c.name, c.got, c.want)
		}
	}
}
