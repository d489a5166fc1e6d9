package core

import "testing"

func TestShardSummaryHealth(t *testing.T) {
	cases := []struct {
		s    ShardSummary
		want Opinion
	}{
		{ShardSummary{}, Erased},
		{ShardSummary{Size: 8}, Healthy},
		{ShardSummary{Size: 8, Isolated: 3}, Healthy},
		{ShardSummary{Size: 8, Isolated: 4}, Faulty},
		{ShardSummary{Size: 8, Isolated: 8}, Faulty},
		{ShardSummary{Size: 1, Isolated: 0}, Healthy},
		{ShardSummary{Size: 1, Isolated: 1}, Faulty},
	}
	for _, c := range cases {
		if got := c.s.Health(); got != c.want {
			t.Errorf("Health(%+v) = %v, want %v", c.s, got, c.want)
		}
	}
	if (ShardSummary{Size: 8, Faulty: 1}).Degraded() != true {
		t.Error("Degraded: faulty shard not flagged")
	}
	if (ShardSummary{Size: 8}).Degraded() {
		t.Error("Degraded: clean shard flagged")
	}
}
