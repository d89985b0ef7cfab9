// Cross-package fixtures: the handlers parse their requests through
// another package (testdata/src/wire), as the serving tiers do through
// internal/wire. The analyzer follows the calls there and trusts no
// helper by name, so the caps count only where that package's bodies
// really apply them.
package handlerlimits

import (
	"net/http"

	"wire"
)

type wireServer struct {
	limits wire.Limits
}

func (s *wireServer) handleCapped(w http.ResponseWriter, r *http.Request) {
	if _, ok := s.limits.ParseCapped(w, r); !ok {
		return
	}
}

func (s *wireServer) handleUncapped(w http.ResponseWriter, r *http.Request) {
	if _, ok := s.limits.ParseUncapped(r); !ok {
		return
	}
}

func (s *wireServer) handleNoFanout(w http.ResponseWriter, r *http.Request) {
	if _, ok := s.limits.ParseNoFanout(w, r); !ok {
		return
	}
}

func registerWire(s *wireServer) {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /wire/capped", s.handleCapped)
	mux.HandleFunc("POST /wire/uncapped", s.handleUncapped) // want `never wires http\.MaxBytesReader`
	mux.HandleFunc("POST /wire/nofanout", s.handleNoFanout) // want `never caps its length against MaxBatch`
}
