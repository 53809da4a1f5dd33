package experiment

import "testing"

func TestDeferralStudyMechanics(t *testing.T) {
	study := sharedDeferralStudy(t)
	// Both legs must finish every batch job (the window is sized so
	// deferral shifts work in time without dropping it).
	if study.Immediate.Completed != study.Jobs {
		t.Fatalf("immediate leg completed %d/%d jobs", study.Immediate.Completed, study.Jobs)
	}
	if study.Deferred.Completed != study.Jobs {
		t.Fatalf("deferred leg completed %d/%d jobs", study.Deferred.Completed, study.Jobs)
	}
	// Power-budget admission must strictly flatten the heat burst the
	// cooling system has to chase.
	if study.Deferred.PeakITKW >= study.Immediate.PeakITKW {
		t.Fatalf("deferral should lower peak IT power: %.2f vs %.2f",
			study.Deferred.PeakITKW, study.Immediate.PeakITKW)
	}
	if study.Immediate.CEkWh <= 0 || study.Deferred.CEkWh <= 0 {
		t.Fatalf("missing cooling energy accounting")
	}
	if study.String() == "" {
		t.Fatalf("study must render")
	}
}
