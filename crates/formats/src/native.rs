//! GDM native on-disk format.
//!
//! Mirrors the layout of the original GMQL repository: a dataset is a
//! directory holding a schema file and, per sample, a region file plus a
//! companion `.meta` file — "both regions and metadata" live side by side
//! (paper §2).
//!
//! ```text
//! <dataset>/
//!   schema.gdm            # one "name<TAB>type" line per variable attribute
//!   files/
//!     <sample>.gdm        # regions: chr left right strand v1 v2 ...
//!     <sample>.gdm.meta   # metadata: attribute<TAB>value
//! ```

use crate::error::FormatError;
use nggc_gdm::{
    Attribute, ChromInterner, Dataset, GRegion, Metadata, Sample, Schema, Strand, Value, ValueType,
};
use std::fs;
use std::path::Path;

/// Serialise a schema to the `schema.gdm` text representation.
pub fn render_schema(schema: &Schema) -> String {
    let mut out = String::new();
    for a in schema.attributes() {
        out.push_str(&format!("{}\t{}\n", a.name, a.ty.name()));
    }
    out
}

/// Parse a `schema.gdm` file body.
pub fn parse_schema(text: &str) -> Result<Schema, FormatError> {
    let mut attrs = Vec::new();
    for (idx, raw) in text.lines().enumerate() {
        let line = raw.trim_end();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let (name, ty) = line
            .split_once('\t')
            .ok_or_else(|| FormatError::malformed(idx + 1, "expected name<TAB>type"))?;
        let ty = ValueType::parse(ty.trim())
            .ok_or_else(|| FormatError::malformed(idx + 1, format!("unknown type {ty:?}")))?;
        attrs.push(Attribute::new(name.trim(), ty));
    }
    Ok(Schema::new(attrs)?)
}

/// Serialise one sample's regions in native layout (schema gives types).
pub fn render_regions(regions: &[GRegion]) -> String {
    let mut out = String::new();
    for r in regions {
        out.push_str(&format!("{}\t{}\t{}\t{}", r.chrom, r.left, r.right, r.strand.symbol()));
        for v in &r.values {
            out.push('\t');
            out.push_str(&v.render());
        }
        out.push('\n');
    }
    out
}

/// Parse a native region file body against a schema.
pub fn parse_regions(text: &str, schema: &Schema) -> Result<Vec<GRegion>, FormatError> {
    let mut out = Vec::new();
    let mut chroms = ChromInterner::new();
    for (idx, raw) in text.lines().enumerate() {
        let lineno = idx + 1;
        let line = raw.trim_end();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let fields: Vec<&str> = line.split('\t').collect();
        if fields.len() != 4 + schema.len() {
            return Err(FormatError::malformed(
                lineno,
                format!("expected {} fields, found {}", 4 + schema.len(), fields.len()),
            ));
        }
        let left: u64 = fields[1]
            .parse()
            .map_err(|_| FormatError::malformed(lineno, format!("bad left {:?}", fields[1])))?;
        let right: u64 = fields[2]
            .parse()
            .map_err(|_| FormatError::malformed(lineno, format!("bad right {:?}", fields[2])))?;
        let strand = Strand::parse(fields[3])
            .ok_or_else(|| FormatError::malformed(lineno, format!("bad strand {:?}", fields[3])))?;
        let mut values = Vec::with_capacity(schema.len());
        for (attr, tok) in schema.attributes().iter().zip(&fields[4..]) {
            values.push(
                Value::parse_as(tok, attr.ty)
                    .map_err(|e| FormatError::malformed(lineno, e.to_string()))?,
            );
        }
        out.push(GRegion::new(chroms.intern(fields[0]), left, right, strand).with_values(values));
    }
    Ok(out)
}

/// Serialise metadata as `attribute<TAB>value` lines.
pub fn render_metadata(meta: &Metadata) -> String {
    let mut out = String::new();
    for (k, v) in meta.iter() {
        out.push_str(&format!("{k}\t{v}\n"));
    }
    out
}

/// Parse a `.meta` file body.
pub fn parse_metadata(text: &str) -> Result<Metadata, FormatError> {
    let mut meta = Metadata::new();
    for (idx, raw) in text.lines().enumerate() {
        let line = raw.trim_end();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let (k, v) = line
            .split_once('\t')
            .ok_or_else(|| FormatError::malformed(idx + 1, "expected attribute<TAB>value"))?;
        meta.insert(k, v);
    }
    Ok(meta)
}

/// Write a whole dataset to `dir` in native layout, creating directories.
pub fn write_dataset(dataset: &Dataset, dir: &Path) -> Result<(), FormatError> {
    let files = dir.join("files");
    fs::create_dir_all(&files)?;
    fs::write(dir.join("schema.gdm"), render_schema(&dataset.schema))?;
    for s in &dataset.samples {
        fs::write(files.join(format!("{}.gdm", s.name)), render_regions(&s.regions))?;
        fs::write(files.join(format!("{}.gdm.meta", s.name)), render_metadata(&s.metadata))?;
    }
    Ok(())
}

/// Read a whole dataset from `dir`. The dataset name is taken from the
/// directory's file name; samples are loaded in lexicographic order for
/// determinism.
pub fn read_dataset(dir: &Path) -> Result<Dataset, FormatError> {
    let name = dir
        .file_name()
        .map(|n| n.to_string_lossy().into_owned())
        .unwrap_or_else(|| "dataset".to_owned());
    let schema = parse_schema(&fs::read_to_string(dir.join("schema.gdm"))?)?;
    let mut dataset = Dataset::new(name.clone(), schema);
    let files = dir.join("files");
    let mut entries: Vec<_> = fs::read_dir(&files)?
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| p.extension().map(|x| x == "gdm").unwrap_or(false))
        .collect();
    entries.sort();
    for region_path in entries {
        let stem =
            region_path.file_stem().map(|s| s.to_string_lossy().into_owned()).unwrap_or_default();
        let regions = parse_regions(&fs::read_to_string(&region_path)?, &dataset.schema)?;
        let meta_path = files.join(format!("{stem}.gdm.meta"));
        let metadata = if meta_path.exists() {
            parse_metadata(&fs::read_to_string(&meta_path)?)?
        } else {
            Metadata::new()
        };
        let sample = Sample::new(stem, &name).with_regions(regions).with_metadata(metadata);
        dataset.add_sample(sample)?;
    }
    Ok(dataset)
}

#[cfg(test)]
mod tests {
    use super::*;
    use nggc_gdm::Attribute;

    fn sample_dataset() -> Dataset {
        let schema = Schema::new(vec![Attribute::new("p_value", ValueType::Float)]).unwrap();
        let mut ds = Dataset::new("PEAKS", schema);
        ds.add_sample(
            Sample::new("s1", "PEAKS")
                .with_regions(vec![
                    GRegion::new("chr1", 2940, 3400, Strand::Pos).with_values(vec![0.0001.into()]),
                    GRegion::new("chr2", 120, 680, Strand::Neg).with_values(vec![0.00002.into()]),
                ])
                .with_metadata(Metadata::from_pairs([("karyotype", "cancer")])),
        )
        .unwrap();
        ds.add_sample(
            Sample::new("s2", "PEAKS")
                .with_regions(vec![GRegion::new("chr1", 886, 1456, Strand::Unstranded)
                    .with_values(vec![0.0004.into()])])
                .with_metadata(Metadata::from_pairs([("sex", "female")])),
        )
        .unwrap();
        ds
    }

    #[test]
    fn schema_roundtrip() {
        let ds = sample_dataset();
        let parsed = parse_schema(&render_schema(&ds.schema)).unwrap();
        assert_eq!(parsed, ds.schema);
    }

    #[test]
    fn regions_roundtrip() {
        let ds = sample_dataset();
        let body = render_regions(&ds.samples[0].regions);
        let parsed = parse_regions(&body, &ds.schema).unwrap();
        assert_eq!(parsed, ds.samples[0].regions);
    }

    #[test]
    fn metadata_roundtrip() {
        let meta = Metadata::from_pairs([("a", "1"), ("b", "x y z")]);
        assert_eq!(parse_metadata(&render_metadata(&meta)).unwrap(), meta);
    }

    #[test]
    fn arity_mismatch_detected() {
        let schema = Schema::new(vec![Attribute::new("x", ValueType::Int)]).unwrap();
        assert!(parse_regions("chr1\t0\t5\t+\n", &schema).is_err());
    }

    #[test]
    fn dataset_disk_roundtrip() {
        let ds = sample_dataset();
        let dir = std::env::temp_dir().join(format!("nggc_native_{}", std::process::id()));
        let dsdir = dir.join("PEAKS");
        write_dataset(&ds, &dsdir).unwrap();
        let back = read_dataset(&dsdir).unwrap();
        assert_eq!(back.name, "PEAKS");
        assert_eq!(back.schema, ds.schema);
        assert_eq!(back.sample_count(), 2);
        assert_eq!(back.sample_by_name("s1").unwrap().regions, ds.samples[0].regions);
        assert!(back.sample_by_name("s2").unwrap().metadata.has("sex", "female"));
        fs::remove_dir_all(&dir).ok();
    }
}
