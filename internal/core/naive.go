package core

// NaiveResult is the outcome of the prior state-of-the-art estimate the
// paper argues against (§1, contributions 1-2): run the rsk against Nc-1
// rsk copies and divide the slowdown by the number of requests.
type NaiveResult struct {
	// UBDm is det/nr rounded to the nearest cycle.
	UBDm int
	// Det is the execution-time increase (cycles).
	Det int64
	// Requests is nr, the scua's bus request count.
	Requests uint64
	// Utilization is the contended run's bus utilization.
	Utilization float64
}

// NaiveFrom computes ubdm the pre-paper way from one isolation-paired run
// of a plain rsk(t) against Nc−1 rsk(t) copies: ubdm = det/nr, with
// det = ExecTime_contended − ExecTime_isolation and nr the scua's request
// count. Because of the synchrony effect this converges to γ(δrsk), which
// underestimates ubd by δrsk (26 vs 27 on the reference NGMP, 23 vs 27 on
// the variant — Fig. 6(b)).
func NaiveFrom(det int64, requests uint64, utilization float64) *NaiveResult {
	res := &NaiveResult{Det: det, Requests: requests, Utilization: utilization}
	if requests > 0 {
		ratio := float64(det) / float64(requests)
		if ratio < 0 {
			ratio = 0
		}
		res.UBDm = int(ratio + 0.5)
	}
	return res
}
