package serve

import (
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strings"
	"testing"

	"erfilter/internal/hit"
	"erfilter/internal/knn"
	"erfilter/internal/match"
	"erfilter/internal/online"
)

// TestMinScoreEqualsWhereFloor holds the request field min_score to the
// DSL spelling of the same floor, `where: "score >= x"`, on every
// candidate-producing endpoint: the floor is compared against the
// higher-is-better hit score, so on an L2² resolver — what -tune serves —
// every useful floor is negative, and a sign check on one carrier made
// min_score mean "exact duplicates only" there. A floor that is not a
// finite number is refused on both carriers.
func TestMinScoreEqualsWhereFloor(t *testing.T) {
	flatDP := online.Config{Method: online.FlatKNN, K: 5, Metric: knn.DotProduct, Dim: 32}
	flatL2 := flatDP
	flatL2.Metric = knn.L2Squared
	mo := &MatchOptions{Config: match.Config{Scorer: match.ScoreJaroWinkler, Threshold: 0.5}}

	post := func(url, contentType, body string) (int, string) {
		t.Helper()
		resp, err := http.Post(url, contentType, strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		raw, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, string(raw)
	}

	const probe = `"text":"nikon coolpix p100 bridge camera model 2"`
	dropped, kept := 0, 0
	for name, cfg := range map[string]online.Config{"flat-dp": flatDP, "flat-l2": flatL2, "knnj": testConfig()} {
		res := mustOpen(t, cfg, 1)
		for i := 0; i < 50; i++ {
			res.Insert(wireEntity(i))
		}
		ts := newMatchServer(t, res, mo)

		var all struct {
			Candidates []hit.Hit `json:"candidates"`
		}
		doJSON(t, "POST", ts.URL+"/v1/query", map[string]any{"text": "nikon coolpix p100 bridge camera model 2"}, &all)

		for _, x := range []float64{-0.3, 0, 0.3} {
			field := fmt.Sprintf(`"min_score":%v`, x)
			where := fmt.Sprintf(`"where":"score >= %v"`, x)
			stream := "/v1/resolve/stream?k=5&"
			for _, ep := range []struct {
				name, path, contentType string
				body                    func(opt string) string
			}{
				{"query", "/v1/query", "application/json",
					func(opt string) string { return `{` + probe + `,` + opt + `}` }},
				{"batch", "/v1/query/batch", "application/json",
					func(opt string) string { return `{"queries":[{` + probe + `},{"text":"bose headphones"}],` + opt + `}` }},
				{"match", "/v1/match", "application/json",
					func(opt string) string { return `{"queries":[{` + probe + `}],` + opt + `}` }},
				{"stream", stream + "min_score=" + fmt.Sprint(x), "application/x-ndjson",
					func(string) string { return `{` + probe + `}` + "\n" }},
			} {
				codeF, gotF := post(ts.URL+ep.path, ep.contentType, ep.body(field))
				wherePath := ep.path
				if ep.name == "stream" {
					wherePath = stream + "where=" + url.QueryEscape(fmt.Sprintf("score >= %v", x))
				}
				codeW, gotW := post(ts.URL+wherePath, ep.contentType, ep.body(where))
				if codeF != http.StatusOK || codeW != http.StatusOK || gotF != gotW {
					t.Errorf("%s %s x=%v: min_score and where disagree\nmin_score: %d %s\nwhere:     %d %s",
						name, ep.name, x, codeF, gotF, codeW, gotW)
				}
			}

			var got struct {
				Candidates []hit.Hit `json:"candidates"`
			}
			doJSON(t, "POST", ts.URL+"/v1/query", map[string]any{"text": "nikon coolpix p100 bridge camera model 2", "min_score": x}, &got)
			for _, c := range got.Candidates {
				if c.Score < x {
					t.Errorf("%s x=%v: candidate %+v is below the floor", name, x, c)
				}
			}
			want := 0
			for _, c := range all.Candidates {
				if c.Score >= x {
					want++
				}
			}
			if len(got.Candidates) < want {
				t.Errorf("%s x=%v: %d candidates, but %d of the unfiltered answer reach the floor", name, x, len(got.Candidates), want)
			}
			kept += len(got.Candidates)
			dropped += len(all.Candidates) - want
		}

		// the stricter floor wins, whichever carrier brought it
		_, strictField := post(ts.URL+"/v1/query", "application/json", `{`+probe+`,"min_score":0.3,"where":"score >= -0.3"}`)
		_, strictWhere := post(ts.URL+"/v1/query", "application/json", `{`+probe+`,"min_score":-0.3,"where":"score >= 0.3"}`)
		_, only := post(ts.URL+"/v1/query", "application/json", `{`+probe+`,"min_score":0.3}`)
		if strictField != only || strictWhere != only {
			t.Errorf("%s: the stricter floor must win\nfield 0.3, where -0.3: %s\nfield -0.3, where 0.3: %s\nfield 0.3: %s", name, strictField, strictWhere, only)
		}

		for _, bad := range []string{"NaN", "Inf", "-Inf", "+Inf", "1e999"} {
			code, body := post(ts.URL+"/v1/resolve/stream?min_score="+url.QueryEscape(bad), "application/x-ndjson", `{`+probe+`}`+"\n")
			if code != http.StatusBadRequest || !strings.Contains(body, `"bad_request"`) {
				t.Errorf("%s stream min_score=%s: %d %s, want the 400 envelope", name, bad, code, body)
			}
		}
		for _, ep := range []string{"/v1/query", "/v1/query/batch", "/v1/match"} {
			code, body := post(ts.URL+ep, "application/json", `{"queries":[{`+probe+`}],`+probe+`,"min_score":1e999}`)
			if code != http.StatusBadRequest || !strings.Contains(body, `"bad_request"`) {
				t.Errorf("%s %s min_score=1e999: %d %s, want the 400 envelope", name, ep, code, body)
			}
		}
	}
	if dropped == 0 || kept == 0 {
		t.Fatalf("the floors never bit (dropped %d) or never passed anything (kept %d): the table proves nothing", dropped, kept)
	}
}
