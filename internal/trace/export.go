package trace

import (
	"encoding/csv"
	"fmt"
	"io"
	"strconv"

	"repro/internal/cloud"
	"repro/internal/model"
)

// WriteRecordsCSV streams the revocation study's raw records as CSV,
// the format the paper's public dataset uses.
func (s *RevocationStudy) WriteRecordsCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	header := []string{"gpu", "region", "stressed", "revoked", "lifetime_hours", "revocation_local_hour"}
	if err := cw.Write(header); err != nil {
		return fmt.Errorf("trace: writing CSV header: %w", err)
	}
	for _, rec := range s.Records {
		row := []string{
			rec.GPU.String(),
			rec.Region.String(),
			strconv.FormatBool(rec.Stressed),
			strconv.FormatBool(rec.Revoked),
			// Shortest representation that parses back to the exact
			// float, so Write → Read is lossless.
			strconv.FormatFloat(rec.LifetimeHours, 'g', -1, 64),
			strconv.Itoa(rec.RevocationLocalHour),
		}
		if err := cw.Write(row); err != nil {
			return fmt.Errorf("trace: writing CSV row: %w", err)
		}
	}
	cw.Flush()
	return cw.Error()
}

// ReadRecordsCSV parses the revocation-record format WriteRecordsCSV
// emits (and the paper's public dataset uses) back into records, so a
// CSV trace — exported by cmd/revstudy or collected from a real spot
// market — can drive an empirical lifetime model.
func ReadRecordsCSV(r io.Reader) ([]ServerRecord, error) {
	cr := csv.NewReader(r)
	cr.FieldsPerRecord = 6
	header, err := cr.Read()
	if err != nil {
		return nil, fmt.Errorf("trace: reading CSV header: %w", err)
	}
	want := []string{"gpu", "region", "stressed", "revoked", "lifetime_hours", "revocation_local_hour"}
	for i, h := range want {
		if header[i] != h {
			return nil, fmt.Errorf("trace: CSV column %d is %q, want %q", i, header[i], h)
		}
	}
	var out []ServerRecord
	for line := 2; ; line++ {
		row, err := cr.Read()
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return nil, fmt.Errorf("trace: reading CSV: %w", err)
		}
		rec, err := parseRecord(row)
		if err != nil {
			return nil, fmt.Errorf("trace: CSV line %d: %w", line, err)
		}
		out = append(out, rec)
	}
}

func parseRecord(row []string) (ServerRecord, error) {
	var rec ServerRecord
	g, err := model.ParseGPU(row[0])
	if err != nil {
		return rec, err
	}
	region, err := cloud.ParseRegion(row[1])
	if err != nil {
		return rec, err
	}
	stressed, err := strconv.ParseBool(row[2])
	if err != nil {
		return rec, fmt.Errorf("stressed: %w", err)
	}
	revoked, err := strconv.ParseBool(row[3])
	if err != nil {
		return rec, fmt.Errorf("revoked: %w", err)
	}
	hours, err := strconv.ParseFloat(row[4], 64)
	if err != nil {
		return rec, fmt.Errorf("lifetime_hours: %w", err)
	}
	localHour, err := strconv.Atoi(row[5])
	if err != nil {
		return rec, fmt.Errorf("revocation_local_hour: %w", err)
	}
	if localHour < -1 || localHour > 23 {
		return rec, fmt.Errorf("revocation_local_hour %d out of [-1, 23]", localHour)
	}
	return ServerRecord{
		GPU:                 g,
		Region:              region,
		Stressed:            stressed,
		Revoked:             revoked,
		LifetimeHours:       hours,
		RevocationLocalHour: localHour,
	}, nil
}

// EmpiricalLifetimeModel turns revocation records into a bootstrap
// trace-replay cloud.LifetimeModel: simulations under it draw
// lifetimes from the recorded outcomes instead of the calibrated
// distributions. Register the result with cloud.LifetimeModels.Register
// to make it selectable by name (cmd/pland's -trace flag does both).
func EmpiricalLifetimeModel(name string, recs []ServerRecord) (*cloud.EmpiricalModel, error) {
	samples := make([]cloud.LifetimeSample, len(recs))
	for i, rec := range recs {
		samples[i] = cloud.LifetimeSample{
			GPU:           rec.GPU,
			Region:        rec.Region,
			Revoked:       rec.Revoked,
			LifetimeHours: rec.LifetimeHours,
		}
	}
	return cloud.NewEmpiricalModel(name, samples)
}

// LifetimeModel replays this study's own records; see
// EmpiricalLifetimeModel.
func (s *RevocationStudy) LifetimeModel(name string) (*cloud.EmpiricalModel, error) {
	return EmpiricalLifetimeModel(name, s.Records)
}

// WriteStartupCSV streams startup summaries as CSV.
func WriteStartupCSV(w io.Writer, summaries []StartupSummary) error {
	cw := csv.NewWriter(w)
	header := []string{"gpu", "region", "tier", "n", "provisioning_s", "staging_s", "booting_s", "total_s", "total_std_s"}
	if err := cw.Write(header); err != nil {
		return fmt.Errorf("trace: writing CSV header: %w", err)
	}
	for _, s := range summaries {
		row := []string{
			s.GPU.String(),
			s.Region.String(),
			s.Tier.String(),
			strconv.Itoa(s.N),
			strconv.FormatFloat(s.MeanProvisioning, 'f', 2, 64),
			strconv.FormatFloat(s.MeanStaging, 'f', 2, 64),
			strconv.FormatFloat(s.MeanBooting, 'f', 2, 64),
			strconv.FormatFloat(s.MeanTotal, 'f', 2, 64),
			strconv.FormatFloat(s.StdTotal, 'f', 2, 64),
		}
		if err := cw.Write(row); err != nil {
			return fmt.Errorf("trace: writing CSV row: %w", err)
		}
	}
	cw.Flush()
	return cw.Error()
}
