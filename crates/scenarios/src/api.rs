//! The `/api/matrix` surface: the scenario catalog as JSON, mounted
//! onto the campaign API router the same way the cluster crate mounts
//! the fleet surface (`ApiServer::serve_with`).

use crate::catalog::default_catalog;
use crate::corpus::default_corpus;
use crate::matrix::Matrix;
use campaign::SharedService;
use httpd::{Response, Router};
use jsonlite::Value;

/// The catalog listing: targets, models, and the applicable cells the
/// default matrix would run.
pub fn catalog_value() -> Value {
    let targets = default_catalog();
    let models = default_corpus();
    let cells = Matrix::new(targets.clone(), models.clone()).cells();
    let cells = cells.iter().map(|c| {
        Value::obj(vec![
            ("target", Value::str(&c.target)),
            ("model", Value::str(&c.model)),
            ("campaign", Value::str(&c.spec.name)),
        ])
    });
    Value::obj(vec![
        ("targets", Value::arr(targets.iter().map(|t| t.to_value()))),
        ("models", Value::arr(models.iter().map(|m| m.to_value()))),
        ("cells", Value::arr(cells)),
    ])
}

/// Mounts `GET /api/matrix` onto `router` — pass to
/// [`campaign::ApiServer::serve_with`].
pub fn mount(router: Router, _shared: &SharedService) -> Router {
    router.route("GET", "/api/matrix", |_req| {
        Response::json(200, catalog_value().pretty())
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalog_value_lists_targets_models_and_cells() {
        let v = catalog_value();
        let targets = v.req("targets").unwrap().as_arr().unwrap();
        let models = v.req("models").unwrap().as_arr().unwrap();
        let cells = v.req("cells").unwrap().as_arr().unwrap();
        assert!(targets.len() >= 4);
        assert!(models.len() >= 6);
        // Cross-product minus tag-filtered cells: more cells than
        // targets, fewer than the full product.
        assert!(cells.len() > targets.len());
        assert!(cells.len() < targets.len() * models.len());
        let first = &cells[0];
        assert!(first
            .req("campaign")
            .unwrap()
            .as_str()
            .unwrap()
            .starts_with("matrix/"));
    }
}
